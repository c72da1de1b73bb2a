// Package httpapi defines the wire types of the bidiagd HTTP API,
// version 1 — the single source of truth shared by the daemon
// (cmd/bidiagd), the shard router (cmd/bidiagrouter), and Go clients
// (package client).
//
// # Endpoints
//
//	POST /v1/singular-values   Job  -> ValuesResponse
//	POST /v1/svd               Job  -> SVDResponse
//	GET  /healthz                   -> daemon liveness document
//	GET  /metrics                   -> Prometheus text exposition
//	GET  /debug/trace/{job_id}      -> Chrome-tracing JSON (?format=raw: the events)
//
// Both POST endpoints accept ?trace=1 to record the job's per-task
// timeline; the response's job_id then keys /debug/trace/{job_id}.
// Errors are returned as a JSON ErrorResponse body with a non-2xx
// status: 400 for malformed requests, 413 for oversized bodies, 429
// (with Retry-After) when the daemon's admission queues are full, 503
// when it is shutting down.
//
// The JSON forms here are pinned by golden-request tests: changing a
// field or tag is a wire-protocol break and needs a new version prefix.
//
// # Binary bodies
//
// A POST whose Content-Type is application/x-bidiag-matrix
// (BinaryMediaType) carries the same job as one frame, and its 200
// response is a frame of the same media type; every other Content-Type
// (none, curl's form default, application/json) is the JSON codec both
// ways. That is the whole rule: no Accept negotiation, no option. Both
// codecs go through the same validation (ReadRequest), and a matrix
// yields the same result bits — and the same cache entry — whichever
// way it arrived. A frame is
//
//	offset  size   field
//	0       4      magic "BDM1"
//	4       4      H, the header length: uint32 little-endian, at most 4096
//	8       H      header: one JSON object
//	8+H     8·K    payload: K IEEE-754 float64 words, little-endian
//
// with nothing after the payload. The header is the JSON form with each
// array replaced by its size, and the payload holds those arrays:
//
//	request   {"m":M,"n":N,"options":{..}}       M·N words, column-major:
//	                                             word i+j·M is element (i,j)
//	values    {"s":K,"cache_hit":..,"ms":..}     the K singular values
//	svd       {"u":{"m":..,"n":..},"s":K,        U column-major, then the K
//	           "v":{"m":..,"n":..},..}           values, then V column-major
//
// "options" is the Options object of the JSON form, with the same
// meaning when absent or null ("planner decides") and when {}; "job_id"
// appears in a response header as it does in JSON. NaN and ±Inf words
// are representable here, unlike in JSON; they are refused with 400 like
// any non-finite input.
//
// A request should carry a Content-Length: the size its header declares
// is checked against it and against the daemon's body cap before the
// matrix is allocated, and the matrix is then allocated once, up front,
// as a recycled buffer that Request.Release hands back for a later
// request. Up-front bytes are capped process-wide at four
// body caps across the requests being read at once, so clients that
// declare large bodies and stall cannot pin more than that; a request
// past the cap, like one without a Content-Length, reads into a matrix
// that grows as its bytes arrive.
package httpapi

import (
	"fmt"

	"github.com/tiled-la/bidiag"
)

// Matrix is the wire form of a dense matrix: column-major data, so
// Data[i + j*M] is element (i, j).
type Matrix struct {
	M    int       `json:"m"`
	N    int       `json:"n"`
	Data []float64 `json:"data"`
}

// Options is the wire subset of bidiag.Options a job may set: the knobs
// that can change a response's bytes. Where a job runs is the daemon's
// business, not the request's — its pool, or with -node/-peers its mesh,
// which refuses tree and auto — so there is no distributed knob. Fields
// earlier clients sent that never changed an answer ("bnd2bd",
// "window") are ignored like any unknown field. String fields use the
// same spellings the CLI flags accept.
type Options struct {
	NB        int    `json:"nb,omitempty"`
	Tree      string `json:"tree,omitempty"`      // auto | flatts | flattt | greedy
	Algorithm string `json:"algorithm,omitempty"` // auto | bidiag | rbidiag
	Workers   int    `json:"workers,omitempty"`
	Gamma     int    `json:"gamma,omitempty"`
	// Auto defers every unset knob to the daemon's plan autotuner
	// (bidiag.Options.Auto); set knobs are honored as pins. A request
	// with NO options object at all is planned the same way.
	Auto bool `json:"auto,omitempty"`
}

// Job is the request body of both POST endpoints. The matrix fields are
// inline (embedded), matching {"m":..,"n":..,"data":[..],"options":{..}}.
type Job struct {
	Matrix
	// Options is a pointer so an options-free request is distinguishable
	// from an explicitly empty one: absent options mean "planner
	// decides" (bidiag.Options.Auto), while {} keeps the library
	// defaults.
	Options *Options `json:"options"`
}

// ValuesResponse is the body of a successful POST /v1/singular-values.
type ValuesResponse struct {
	S        []float64 `json:"s"`
	CacheHit bool      `json:"cache_hit"`
	Ms       float64   `json:"ms"`
	// JobID is set for traced requests (?trace=1): the job's timeline is
	// then available at /debug/trace/{job_id}.
	JobID string `json:"job_id,omitempty"`
}

// SVDResponse is the body of a successful POST /v1/svd.
type SVDResponse struct {
	U        Matrix    `json:"u"`
	S        []float64 `json:"s"`
	V        Matrix    `json:"v"`
	CacheHit bool      `json:"cache_hit"`
	Ms       float64   `json:"ms"`
	JobID    string    `json:"job_id,omitempty"`
}

// ErrorResponse is the body of every non-2xx response.
type ErrorResponse struct {
	Error string `json:"error"`
}

// ToOptions lowers the wire options to bidiag.Options via the library's
// parse helpers (one shared validation path). A nil receiver is an
// options-free request: everything defers to the planner.
func (o *Options) ToOptions() (*bidiag.Options, error) {
	if o == nil {
		return &bidiag.Options{Auto: true}, nil
	}
	opts := &bidiag.Options{NB: o.NB, Workers: o.Workers, Gamma: o.Gamma, Auto: o.Auto}
	var err error
	if opts.Tree, err = bidiag.ParseTree(o.Tree); err != nil {
		return nil, err
	}
	if opts.Algorithm, err = bidiag.ParseAlgorithm(o.Algorithm); err != nil {
		return nil, err
	}
	return opts, nil
}

// Dense validates the wire matrix and lifts it to a bidiag.Dense.
func (m Matrix) Dense() (*bidiag.Dense, error) {
	n, err := shapeSize(m.M, m.N)
	if err != nil {
		return nil, err
	}
	if len(m.Data) != n {
		return nil, fmt.Errorf("shape %dx%d needs %d elements, got %d", m.M, m.N, n, len(m.Data))
	}
	return bidiag.NewDenseFromColMajor(m.M, m.N, m.Data)
}

// FromDense lowers a bidiag.Dense to its wire form.
func FromDense(d *bidiag.Dense) Matrix {
	m, n := d.Rows(), d.Cols()
	data := make([]float64, m*n)
	for j := 0; j < n; j++ {
		for i := 0; i < m; i++ {
			data[i+j*m] = d.At(i, j)
		}
	}
	return Matrix{M: m, N: n, Data: data}
}
