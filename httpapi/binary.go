package httpapi

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"mime"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"

	"github.com/tiled-la/bidiag/internal/nla"
)

// BinaryMediaType names the binary job codec (see the package comment
// for the byte layout). A POST carrying it is answered in it.
const BinaryMediaType = "application/x-bidiag-matrix"

const (
	frameMagic = "BDM1"
	// maxHeader bounds the header JSON, so a decoder allocates O(1)
	// before it has checked the payload size the header declares.
	maxHeader = 4 << 10
	// chunkBytes is the staging buffer between the wire and the
	// []float64 a payload is decoded into.
	chunkBytes = 32 << 10
	// upfrontFactor caps, as a multiple of the body cap, the payload bytes
	// allocated ahead of their arrival by all requests being decoded at
	// once: a sized payload past it decodes as its bytes arrive, so
	// clients that declare large bodies and stall pin no more than that.
	upfrontFactor = 4
)

// upfront counts the payload bytes of the requests being decoded now that
// were allocated when their size was declared, before they arrived.
var upfront atomic.Int64

// Reserve reports whether n more bytes, allocated for a body capped at
// limit before it arrives, fit the process's up-front cap, and if so
// counts them until Unreserve(n). Past it, a caller grows as bytes arrive.
func Reserve(n, limit int64) bool {
	if upfront.Add(n) <= upfrontFactor*min(limit, math.MaxInt64/upfrontFactor) {
		return true
	}
	upfront.Add(-n)
	return false
}

// Unreserve gives back n bytes a successful Reserve counted.
func Unreserve(n int64) { upfront.Add(-n) }

// jobHeader is the frame header of a request: Job without its data.
type jobHeader struct {
	M       int      `json:"m"`
	N       int      `json:"n"`
	Options *Options `json:"options"`
}

// responseHeader is the frame header of a 200 response: the JSON
// response with every array replaced by its size. U and V are set on
// /v1/svd only; the payload is U, S, V in that order.
type responseHeader struct {
	U        *shape  `json:"u,omitempty"`
	S        int     `json:"s"`
	V        *shape  `json:"v,omitempty"`
	CacheHit bool    `json:"cache_hit"`
	Ms       float64 `json:"ms"`
	JobID    string  `json:"job_id,omitempty"`
}

type shape struct {
	M int `json:"m"`
	N int `json:"n"`
}

// IsBinary reports whether a Content-Type header value names the binary
// codec. Anything else — absent, malformed, curl's default form type —
// means the v1 JSON codec.
func IsBinary(contentType string) bool {
	mt, _, err := mime.ParseMediaType(contentType)
	return err == nil && mt == BinaryMediaType
}

// shapeSize returns m·n for a positive shape whose byte size 8·m·n fits
// an int. Both codecs validate dimensions here, before the product is
// compared with, or used to size, anything.
func shapeSize(m, n int) (int, error) {
	if m <= 0 || n <= 0 {
		return 0, fmt.Errorf("invalid shape %dx%d", m, n)
	}
	if m > math.MaxInt/8/n {
		return 0, fmt.Errorf("shape %dx%d is too large", m, n)
	}
	return m * n, nil
}

// EncodeJob frames a job as a BinaryMediaType request body.
func EncodeJob(j Job) ([]byte, error) {
	return encodeFrame(jobHeader{M: j.M, N: j.N, Options: j.Options}, j.Data)
}

// EncodeResponse frames a ValuesResponse or an SVDResponse as a
// BinaryMediaType response body.
func EncodeResponse(v any) ([]byte, error) {
	switch r := v.(type) {
	case ValuesResponse:
		return encodeFrame(responseHeader{S: len(r.S), CacheHit: r.CacheHit, Ms: r.Ms, JobID: r.JobID}, r.S)
	case SVDResponse:
		if len(r.U.Data) != r.U.M*r.U.N || len(r.V.Data) != r.V.M*r.V.N {
			return nil, errors.New("httpapi: SVD factor data does not match its shape")
		}
		return encodeFrame(responseHeader{
			U: &shape{r.U.M, r.U.N}, S: len(r.S), V: &shape{r.V.M, r.V.N},
			CacheHit: r.CacheHit, Ms: r.Ms, JobID: r.JobID,
		}, r.U.Data, r.S, r.V.Data)
	}
	return nil, fmt.Errorf("httpapi: no binary form for %T", v)
}

// DecodeResponse reads a BinaryMediaType response body into out, a
// *ValuesResponse or *SVDResponse; a frame of the other kind is an
// error. size is the body's declared length (http.Response.ContentLength),
// or -1 when unknown.
func DecodeResponse(r io.Reader, size int64, out any) error {
	var h responseHeader
	head, err := readHeader(r, &h)
	if err != nil {
		return err
	}
	// A values response has no factors: they keep size 0, nothing is read.
	var ns [3]int
	for i, f := range [3]*shape{h.U, {h.S, 1}, h.V} {
		if f != nil {
			if ns[i], err = shapeSize(f.M, f.N); err != nil {
				return err
			}
		}
	}
	vecs, err := readPayload(r, head, size, math.MaxInt64, func(n int) []float64 { return make([]float64, n) }, ns[:]...)
	if err != nil {
		return err
	}
	switch o := out.(type) {
	case *ValuesResponse:
		if h.U != nil || h.V != nil {
			return errors.New("values response carries singular vectors")
		}
		*o = ValuesResponse{S: vecs[1], CacheHit: h.CacheHit, Ms: h.Ms, JobID: h.JobID}
	case *SVDResponse:
		if h.U == nil || h.V == nil {
			return errors.New("response carries no singular vectors")
		}
		*o = SVDResponse{
			U: Matrix{M: h.U.M, N: h.U.N, Data: vecs[0]}, S: vecs[1], V: Matrix{M: h.V.M, N: h.V.N, Data: vecs[2]},
			CacheHit: h.CacheHit, Ms: h.Ms, JobID: h.JobID,
		}
	default:
		return fmt.Errorf("httpapi: no binary form for %T", out)
	}
	return nil
}

// WriteResponse answers a job with status 200 in the codec its request
// used: v (a ValuesResponse or SVDResponse) as JSON, or framed when
// binary is set. An error before the first byte leaves the response
// unstarted.
func WriteResponse(w http.ResponseWriter, binary bool, v any) error {
	if !binary {
		w.Header().Set("Content-Type", "application/json")
		return json.NewEncoder(w).Encode(v)
	}
	blob, err := EncodeResponse(v)
	if err != nil {
		return err
	}
	w.Header().Set("Content-Type", BinaryMediaType)
	w.Header().Set("Content-Length", strconv.Itoa(len(blob)))
	_, err = w.Write(blob)
	return err
}

// readJob decodes a BinaryMediaType request body. size is the request's
// Content-Length (-1 when unknown) and limit the body cap; the payload
// size the header declares is checked against both before the matrix is
// allocated. A sized payload within the process's up-front cap lands in
// ar (Request.Release recycles it); any other grows as bytes arrive.
func readJob(r io.Reader, size, limit int64, ar *nla.Arena) (Job, error) {
	var h jobHeader
	head, err := readHeader(r, &h)
	if err != nil {
		return Job{}, err
	}
	n, err := shapeSize(h.M, h.N)
	if err != nil {
		return Job{}, err
	}
	var held int64
	defer func() { Unreserve(held) }()
	vecs, err := readPayload(r, head, size, limit, func(n int) []float64 {
		if !Reserve(8*int64(n), limit) {
			return nil
		}
		held = 8 * int64(n)
		return ar.Buffer(n)
	}, n)
	if err != nil {
		return Job{}, err
	}
	return Job{Matrix: Matrix{M: h.M, N: h.N, Data: vecs[0]}, Options: h.Options}, nil
}

// encodeFrame lays out magic, header length, the header as JSON, and
// the vectors as little-endian float64 words.
func encodeFrame(header any, vecs ...[]float64) ([]byte, error) {
	h, err := json.Marshal(header)
	if err != nil {
		return nil, err
	}
	if len(h) > maxHeader {
		return nil, fmt.Errorf("httpapi: frame header is %d bytes, the format allows %d", len(h), maxHeader)
	}
	size := 8 + len(h)
	for _, v := range vecs {
		size += 8 * len(v)
	}
	buf := make([]byte, size)
	copy(buf, frameMagic)
	binary.LittleEndian.PutUint32(buf[4:], uint32(len(h)))
	off := 8 + copy(buf[8:], h)
	for _, v := range vecs {
		nla.PutFloat64sLE(buf[off:], v)
		off += 8 * len(v)
	}
	return buf, nil
}

// readHeader consumes a frame's magic, header length and header JSON
// (into header) and returns how many bytes that was.
func readHeader(r io.Reader, header any) (int64, error) {
	var fixed [8]byte
	if _, err := io.ReadFull(r, fixed[:]); err != nil {
		return 0, fmt.Errorf("frame preamble: %w", err)
	}
	if string(fixed[:4]) != frameMagic {
		return 0, fmt.Errorf("body does not start with %q (is the Content-Type right?)", frameMagic)
	}
	n := binary.LittleEndian.Uint32(fixed[4:])
	if n > maxHeader {
		return 0, fmt.Errorf("frame header of %d bytes exceeds the format's %d", n, maxHeader)
	}
	h := make([]byte, n)
	if _, err := io.ReadFull(r, h); err != nil {
		return 0, fmt.Errorf("frame header: %w", err)
	}
	if err := json.Unmarshal(h, header); err != nil {
		return 0, fmt.Errorf("frame header: %w", err)
	}
	return 8 + int64(n), nil
}

// readPayload reads the float64 vectors of lengths ns (each at most
// MaxInt/8, as shapeSize returns) that follow a head-byte frame head,
// and insists the body ends there. A frame larger than limit is an
// *http.MaxBytesError and one that disagrees with a known size an
// error, both before anything is allocated. With a known size, each
// vector is read into alloc(n) — up front, since n matched the size —
// unless alloc returns nil; without one, it grows as bytes arrive.
func readPayload(r io.Reader, head, size, limit int64, alloc func(n int) []float64, ns ...int) ([][]float64, error) {
	var count int64
	for _, n := range ns {
		count += int64(n)
	}
	if count > (limit-head)/8 {
		return nil, &http.MaxBytesError{Limit: limit}
	}
	if frame := head + 8*count; size >= 0 && frame != size {
		return nil, fmt.Errorf("frame header declares a %d-byte body, Content-Length is %d", frame, size)
	}
	vecs := make([][]float64, len(ns))
	for i, n := range ns {
		var data []float64
		if size >= 0 {
			data = alloc(n)
		}
		var err error
		if vecs[i], err = readFloats(r, n, data); err != nil {
			return nil, fmt.Errorf("frame payload: %w", err)
		}
	}
	var one [1]byte
	if n, err := io.ReadFull(r, one[:]); n > 0 {
		return nil, errors.New("body continues past the payload its header declares")
	} else if err != io.EOF {
		return nil, err
	}
	return vecs, nil
}

// staging recycles readFloats' chunk buffers from one body to the next.
var staging = sync.Pool{New: func() any { return new([chunkBytes]byte) }}

// readFloats reads n little-endian float64 words in bounded chunks into
// data, which is either n long — allocated up front — or nil: then the
// slice doubles as bytes arrive, so a forged count cannot allocate ahead
// of its payload.
func readFloats(r io.Reader, n int, data []float64) ([]float64, error) {
	stage := staging.Get().(*[chunkBytes]byte)
	defer staging.Put(stage)
	buf := stage[:min(8*n, chunkBytes)]
	if data == nil {
		data = make([]float64, 0, len(buf)/8)
	}
	data = data[:0]
	for len(data) < n {
		k := min(n-len(data), len(buf)/8)
		if _, err := io.ReadFull(r, buf[:8*k]); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
		if len(data)+k > cap(data) {
			grown := make([]float64, len(data), min(n, 2*cap(data)))
			copy(grown, data)
			data = grown
		}
		data = data[:len(data)+k]
		nla.Float64sFromLE(data[len(data)-k:], buf)
	}
	return data, nil
}
