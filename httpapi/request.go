package httpapi

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"

	"github.com/tiled-la/bidiag"
	"github.com/tiled-la/bidiag/internal/nla"
)

// Request is one job POST, read and validated: the front door shared by
// bidiagd (both modes) and bidiagrouter.
type Request struct {
	// Job is the request as sent. Its Data backs A — nothing is copied —
	// until Release.
	Job
	// A is Job.Matrix validated and lifted; Opts is Job.Options lowered
	// (ToOptions).
	A    *bidiag.Dense
	Opts *bidiag.Options
	// Trace is the ?trace= query flag.
	Trace bool
	// Binary reports that the body came in BinaryMediaType, so the 200
	// response goes out in it too (WriteResponse).
	Binary bool
	// arena holds a sized binary payload (see the package comment).
	arena nla.Arena
}

// Release recycles the memory a sized binary payload was decoded into
// for a later request; Data and A must not be used after it. Call it only
// once nothing can read the matrix again — after the job that read A has
// succeeded and its response is written. A request that is never
// released, as on every error path, is ordinary GC-owned memory.
// Releasing a JSON request, or a request twice, does nothing.
func (r *Request) Release() { r.arena.Release() }

// ReadRequest reads the body of a job POST under the maxBody cap, in the
// codec its Content-Type names, and validates shape, options and the
// ?trace= flag. On failure it returns the status to answer with: 413 for
// a body over the cap (read or, in the binary codec, merely declared),
// 400 for everything else.
func ReadRequest(w http.ResponseWriter, r *http.Request, maxBody int64) (*Request, int, error) {
	req := &Request{Binary: IsBinary(r.Header.Get("Content-Type"))}
	switch q := r.URL.Query().Get("trace"); strings.ToLower(q) {
	case "", "0", "false":
	case "1", "true", "yes":
		req.Trace = true
	default:
		return nil, http.StatusBadRequest, fmt.Errorf("invalid trace value %q", q)
	}
	body := http.MaxBytesReader(w, r.Body, maxBody)
	var err error
	if req.Binary {
		req.Job, err = readJob(body, r.ContentLength, maxBody, &req.arena)
	} else {
		err = json.NewDecoder(body).Decode(&req.Job)
	}
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return nil, http.StatusRequestEntityTooLarge,
				fmt.Errorf("request body exceeds %d bytes (-max-body-mb raises the cap)", tooBig.Limit)
		}
		return nil, http.StatusBadRequest, fmt.Errorf("decode request: %w", err)
	}
	if req.A, err = req.Dense(); err != nil {
		return nil, http.StatusBadRequest, err
	}
	if req.Opts, err = req.Options.ToOptions(); err != nil {
		return nil, http.StatusBadRequest, err
	}
	return req, http.StatusOK, nil
}
