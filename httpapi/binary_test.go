package httpapi_test

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"

	"github.com/tiled-la/bidiag"
	"github.com/tiled-la/bidiag/httpapi"
)

// read runs body through the shared front door the way a daemon would.
// sized false hides the Content-Length, as a chunked upload does.
func read(body []byte, binary, sized bool, maxBody int64) (*httpapi.Request, int, error) {
	r := httptest.NewRequest(http.MethodPost, "/v1/singular-values", bytes.NewReader(body))
	if !sized {
		r.ContentLength = -1
	}
	if binary {
		r.Header.Set("Content-Type", httpapi.BinaryMediaType)
	}
	return httpapi.ReadRequest(httptest.NewRecorder(), r, maxBody)
}

// allocated returns the bytes f allocates.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// frame assembles a binary body by hand, so malformed ones can be built.
func frame(header string, payload ...float64) []byte {
	b := append([]byte("BDM1"), 0, 0, 0, 0)
	binary.LittleEndian.PutUint32(b[4:], uint32(len(header)))
	b = append(b, header...)
	for _, v := range payload {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return b
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestGoldenBinaryFrames pins the binary wire format byte for byte, as
// the JSON golden tests pin theirs.
func TestGoldenBinaryFrames(t *testing.T) {
	job, err := httpapi.EncodeJob(httpapi.Job{
		Matrix:  httpapi.Matrix{M: 2, N: 1, Data: []float64{1, -2}},
		Options: &httpapi.Options{NB: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := "BDM1" + "\x20\x00\x00\x00" + `{"m":2,"n":1,"options":{"nb":8}}` +
		"\x00\x00\x00\x00\x00\x00\xf0\x3f" + "\x00\x00\x00\x00\x00\x00\x00\xc0"
	if string(job) != want {
		t.Fatalf("job frame:\n got %q\nwant %q", job, want)
	}
	// No options object is null in the header, and stays nil when read.
	bare, _ := httpapi.EncodeJob(httpapi.Job{Matrix: httpapi.Matrix{M: 1, N: 1, Data: []float64{5}}})
	if want := "BDM1" + "\x1c\x00\x00\x00" + `{"m":1,"n":1,"options":null}` + "\x00\x00\x00\x00\x00\x00\x14\x40"; string(bare) != want {
		t.Fatalf("bare job frame:\n got %q\nwant %q", bare, want)
	}

	vr, err := httpapi.EncodeResponse(httpapi.ValuesResponse{S: []float64{2}, CacheHit: true, Ms: 1.5, JobID: "j000001"})
	if err != nil {
		t.Fatal(err)
	}
	if want := "BDM1" + "\x34\x00\x00\x00" + `{"s":1,"cache_hit":true,"ms":1.5,"job_id":"j000001"}` + "\x00\x00\x00\x00\x00\x00\x00\x40"; string(vr) != want {
		t.Fatalf("values frame:\n got %q\nwant %q", vr, want)
	}
	sr, err := httpapi.EncodeResponse(httpapi.SVDResponse{
		U:  httpapi.Matrix{M: 1, N: 1, Data: []float64{1}},
		S:  []float64{3},
		V:  httpapi.Matrix{M: 1, N: 1, Data: []float64{-1}},
		Ms: 0.25,
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := "BDM1" + "\x47\x00\x00\x00" + `{"u":{"m":1,"n":1},"s":1,"v":{"m":1,"n":1},"cache_hit":false,"ms":0.25}` +
		"\x00\x00\x00\x00\x00\x00\xf0\x3f" + "\x00\x00\x00\x00\x00\x00\x08\x40" + "\x00\x00\x00\x00\x00\x00\xf0\xbf"; string(sr) != want {
		t.Fatalf("svd frame:\n got %q\nwant %q", sr, want)
	}
}

// TestBinaryRoundTrip sends jobs and responses through the codec and
// back: dims, options (nil, empty, set) and every bit of the data —
// signed zero, subnormals, extreme scales, NaN payloads — survive, with
// and without a Content-Length.
func TestBinaryRoundTrip(t *testing.T) {
	data := []float64{
		math.Copysign(0, -1), 5e-324, -2.2250738585072009e-308, math.Ldexp(1.1, 498), math.Ldexp(-1.3, -498),
		math.Inf(1), math.Inf(-1), math.Float64frombits(0x7ff8dead0000beef), 1, 1.0000000000000002, -1, 0,
	}
	for _, opts := range []*httpapi.Options{nil, {}, {NB: 16, Tree: "greedy", Algorithm: "rbidiag", Workers: 3, Gamma: 2, Auto: true}} {
		job := httpapi.Job{Matrix: httpapi.Matrix{M: 4, N: 3, Data: data}, Options: opts}
		blob, err := httpapi.EncodeJob(job)
		if err != nil {
			t.Fatal(err)
		}
		for _, sized := range []bool{true, false} {
			req, status, err := read(blob, true, sized, 1<<20)
			if err != nil || status != http.StatusOK {
				t.Fatalf("options %+v sized %v: status %d: %v", opts, sized, status, err)
			}
			if !req.Binary || req.M != 4 || req.N != 3 || !sameBits(req.Data, data) || !reflect.DeepEqual(req.Options, opts) {
				t.Fatalf("options %+v sized %v: round trip changed the job: %+v", opts, sized, req.Job)
			}
			if req.A.Rows() != 4 || req.A.Cols() != 3 || math.Float64bits(req.A.At(0, 0)) != 1<<63 || req.A.At(1, 1) != math.Inf(1) {
				t.Fatalf("Dense does not view the decoded data: %v %v", req.A.At(0, 0), req.A.At(1, 1))
			}
			// The codec carries non-finite words; the library's door refuses them.
			if err := req.A.CheckFinite(); !errors.Is(err, bidiag.ErrNonFinite) {
				t.Fatalf("CheckFinite = %v, want ErrNonFinite", err)
			}
			want, _ := opts.ToOptions()
			if !reflect.DeepEqual(req.Opts, want) {
				t.Fatalf("lowered options %+v, want %+v", req.Opts, want)
			}
		}
	}

	in := httpapi.SVDResponse{
		U: httpapi.Matrix{M: 4, N: 3, Data: data}, S: data[:3],
		V: httpapi.Matrix{M: 3, N: 3, Data: data[3:]}, CacheHit: true, Ms: 0.1 + 0.2, JobID: "j000042",
	}
	blob, err := httpapi.EncodeResponse(in)
	if err != nil {
		t.Fatal(err)
	}
	for _, size := range []int64{int64(len(blob)), -1} {
		var out httpapi.SVDResponse
		if err := httpapi.DecodeResponse(bytes.NewReader(blob), size, &out); err != nil {
			t.Fatal(err)
		}
		if out.U.M != 4 || out.U.N != 3 || out.V.M != 3 || out.V.N != 3 || !sameBits(out.U.Data, in.U.Data) ||
			!sameBits(out.S, in.S) || !sameBits(out.V.Data, in.V.Data) || !out.CacheHit || out.Ms != in.Ms || out.JobID != in.JobID {
			t.Fatalf("svd response round trip (size %d): %+v", size, out)
		}
	}
	var vals httpapi.ValuesResponse
	if err := httpapi.DecodeResponse(bytes.NewReader(blob[:len(blob)-8]), -1, &vals); err == nil {
		t.Fatal("truncated response decoded")
	}
	if err := httpapi.DecodeResponse(bytes.NewReader(blob), int64(len(blob))+8, &vals); err == nil {
		t.Fatal("response shorter than its Content-Length decoded")
	}
	if err := httpapi.DecodeResponse(bytes.NewReader(blob), -1, &vals); err == nil {
		t.Fatal("an SVD frame decoded as a values response")
	}
	blob, _ = httpapi.EncodeResponse(httpapi.ValuesResponse{S: data, Ms: 7})
	if err := httpapi.DecodeResponse(bytes.NewReader(blob), int64(len(blob)), &vals); err != nil || !sameBits(vals.S, data) || vals.Ms != 7 || vals.CacheHit {
		t.Fatalf("values response round trip: %+v %v", vals, err)
	}
	if err := httpapi.DecodeResponse(bytes.NewReader(blob), -1, &in); err == nil {
		t.Fatal("a values frame decoded as an SVD response")
	}
}

// TestContentTypeDispatch pins the one rule: the binary media type (any
// case, with parameters) selects the binary codec, everything else JSON.
func TestContentTypeDispatch(t *testing.T) {
	for ct, want := range map[string]bool{
		"application/x-bidiag-matrix":                true,
		"Application/X-Bidiag-Matrix; charset=utf-8": true,
		"":                                  false,
		"application/json":                  false,
		"application/x-www-form-urlencoded": false,
		"application/octet-stream":          false,
	} {
		if got := httpapi.IsBinary(ct); got != want {
			t.Errorf("IsBinary(%q) = %v, want %v", ct, got, want)
		}
	}
	// A JSON body under curl's default type stays on the JSON path, and a
	// JSON body under the binary type is refused, not sniffed.
	const body = `{"m":1,"n":1,"data":[5]}`
	r := httptest.NewRequest(http.MethodPost, "/v1/svd?trace=yes", strings.NewReader(body))
	r.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	req, _, err := httpapi.ReadRequest(httptest.NewRecorder(), r, 1<<10)
	if err != nil || req.Binary || !req.Trace || req.A.At(0, 0) != 5 || !req.Opts.Auto {
		t.Fatalf("form-typed JSON body: %+v %v", req, err)
	}
	if _, status, err := read([]byte(body), true, true, 1<<10); status != http.StatusBadRequest || !strings.Contains(err.Error(), "BDM1") {
		t.Fatalf("JSON under the binary type: %d %v", status, err)
	}
	r = httptest.NewRequest(http.MethodPost, "/v1/svd?trace=maybe", strings.NewReader(body))
	if _, status, _ := httpapi.ReadRequest(httptest.NewRecorder(), r, 1<<10); status != http.StatusBadRequest {
		t.Fatalf("invalid trace flag: status %d, want 400", status)
	}
}

// half is the dimension whose square wraps an int to zero.
var half = 1 << (strconv.IntSize / 2)

// TestShapeOverflow is the regression test of the wrapping shape check:
// 2³²×2³² over no data passed len(Data) == M*N and blew up downstream.
func TestShapeOverflow(t *testing.T) {
	for _, m := range []httpapi.Matrix{
		{M: half, N: half},
		{M: math.MaxInt, N: 2, Data: make([]float64, 2)},
		{M: math.MaxInt/8 + 1, N: 1},
	} {
		if _, err := m.Dense(); err == nil {
			t.Fatalf("%dx%d over %d elements accepted", m.M, m.N, len(m.Data))
		}
	}
	dims := strconv.Itoa(half)
	body := `{"m":` + dims + `,"n":` + dims + `,"data":[]}`
	if _, status, err := read([]byte(body), false, true, 1<<10); status != http.StatusBadRequest {
		t.Fatalf("JSON overflow dims: status %d (%v), want 400", status, err)
	}
	if _, status, err := read(frame(`{"m":`+dims+`,"n":`+dims+`}`), true, true, 1<<10); status != http.StatusBadRequest {
		t.Fatalf("binary overflow dims: status %d (%v), want 400", status, err)
	}
}

// TestForgedFramesAllocateNothing answers every way a frame can lie
// about its size with 400 or 413 before the matrix is allocated: the
// bytes allocated stay O(header), whatever the header claims.
func TestForgedFramesAllocateNothing(t *testing.T) {
	const maxBody = 32 << 20
	valid, _ := httpapi.EncodeJob(httpapi.Job{Matrix: httpapi.Matrix{M: 2, N: 2, Data: []float64{1, 2, 3, 4}}})
	longHeader := frame(`{"m":1,"n":1,"options":{"tree":"` + strings.Repeat("x", 4096) + `"}}`)
	for _, tc := range []struct {
		name   string
		body   []byte
		sized  bool
		status int
		budget uint64
	}{
		{"dims past the cap", frame(`{"m":1048576,"n":1048576}`, 1, 2), true, http.StatusRequestEntityTooLarge, 16 << 10},
		{"dims past the cap, chunked", frame(`{"m":1048576,"n":1048576}`, 1, 2), false, http.StatusRequestEntityTooLarge, 16 << 10},
		{"dims that overflow", frame(`{"m":` + strconv.Itoa(half) + `,"n":` + strconv.Itoa(half) + `}`), true, http.StatusBadRequest, 16 << 10},
		{"negative dims", frame(`{"m":-4,"n":-4}`), true, http.StatusBadRequest, 16 << 10},
		{"payload shorter than declared", frame(`{"m":2000,"n":2000}`, 1, 2, 3), true, http.StatusBadRequest, 16 << 10},
		{"payload longer than declared", append(valid[:len(valid):len(valid)], 0, 0, 0, 0, 0, 0, 0, 0), true, http.StatusBadRequest, 16 << 10},
		{"half a word more", append(valid[:len(valid):len(valid)], 0, 0, 0, 0), true, http.StatusBadRequest, 16 << 10},
		{"truncated mid-payload", valid[:len(valid)-3], true, http.StatusBadRequest, 16 << 10},
		{"header length past the body", append([]byte("BDM1"), 0xff, 0x0f, 0, 0, '{'), true, http.StatusBadRequest, 16 << 10},
		{"header length past the format", longHeader, true, http.StatusBadRequest, 16 << 10},
		{"header length 4 GiB", append([]byte("BDM1"), 0xff, 0xff, 0xff, 0xff), true, http.StatusBadRequest, 16 << 10},
		{"wrong magic", append([]byte("BDM2"), valid[4:]...), true, http.StatusBadRequest, 16 << 10},
		{"header is not JSON", frame(`m=2&n=2`, 1, 2, 3, 4), true, http.StatusBadRequest, 16 << 10},
		{"empty body", nil, true, http.StatusBadRequest, 16 << 10},
		// Without a Content-Length a count within the cap can only be
		// refuted by reading: one chunk and one slice of that size, not
		// the 30 MiB the header asks for.
		{"short payload, chunked", frame(`{"m":2000,"n":2000}`, 1, 2, 3), false, http.StatusBadRequest, 96 << 10},
		{"long payload, chunked", append(valid[:len(valid):len(valid)], 0), false, http.StatusBadRequest, 16 << 10},
	} {
		var status int
		var err error
		n := allocated(func() { _, status, err = read(tc.body, true, tc.sized, maxBody) })
		if err == nil || status != tc.status {
			t.Errorf("%s: status %d (%v), want %d", tc.name, status, err, tc.status)
		}
		if n > tc.budget {
			t.Errorf("%s: allocated %d bytes answering %d, budget %d", tc.name, n, status, tc.budget)
		}
	}
}

// stall is a request body that delivers its frame head, then blocks until
// release is closed, as a client that declares a payload and never sends
// it.
type stall struct {
	head    *bytes.Reader
	waiting sync.Once
	stalled *sync.WaitGroup
	release chan struct{}
}

func (s *stall) Read(p []byte) (int, error) {
	if s.head.Len() > 0 {
		return s.head.Read(p)
	}
	s.waiting.Do(s.stalled.Done)
	<-s.release
	return 0, io.ErrUnexpectedEOF
}

// TestDeclaredSizesCannotPinMemory: clients that declare a payload and
// stall hold at most the process's up-front cap — four body caps — in
// payload buffers; the others decode as bytes arrive, and hold a staging
// chunk each. Once they give up, a sized payload is allocated up front
// again.
func TestDeclaredSizesCannotPinMemory(t *testing.T) {
	const (
		maxBody  = 1 << 20
		senders  = 16
		upfront  = 4 * maxBody
		slack    = 2 << 20
		m, n     = 128, 1020
		declared = 8 * m * n
	)
	head := frame(`{"m":128,"n":1020}`)
	size := int64(len(head) + declared)
	if size > maxBody {
		t.Fatalf("a %d-byte frame is over the %d-byte cap", size, maxBody)
	}
	var stalled, finished sync.WaitGroup
	release := make(chan struct{})
	statuses := make([]int, senders)
	runtime.GC()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	stalled.Add(senders)
	finished.Add(senders)
	for i := range senders {
		body := &stall{head: bytes.NewReader(head), stalled: &stalled, release: release}
		r := httptest.NewRequest(http.MethodPost, "/v1/singular-values", body)
		r.ContentLength = size
		r.Header.Set("Content-Type", httpapi.BinaryMediaType)
		go func() {
			defer finished.Done()
			_, statuses[i], _ = httpapi.ReadRequest(httptest.NewRecorder(), r, maxBody)
		}()
	}
	stalled.Wait()
	runtime.GC()
	runtime.ReadMemStats(&after)
	close(release)
	finished.Wait()
	grew := int64(after.HeapInuse) - int64(before.HeapInuse)
	t.Logf("%d stalled senders declaring %d bytes each hold %d bytes", senders, size, grew)
	if grew >= upfront+slack {
		t.Errorf("%d stalled senders hold %d bytes, want under %d (the up-front cap) + %d", senders, grew, upfront, slack)
	}
	for i, status := range statuses {
		if status != http.StatusBadRequest {
			t.Errorf("sender %d: status %d, want 400", i, status)
		}
	}

	full := frame(`{"m":128,"n":1020}`, make([]float64, m*n)...)
	got := allocated(func() {
		if _, status, err := read(full, true, true, maxBody); err != nil {
			t.Errorf("sized body after the stalls: %d %v", status, err)
		}
	})
	if got > declared+64<<10 {
		t.Errorf("a sized body after the stalls allocated %d bytes: its %d-byte payload was not made up front", got, declared)
	}
}

// TestReleaseReusesThePayload: a released request's payload buffer is
// what the next sized body of its size class decodes into, and that body
// reads back as sent. Releasing twice, or a JSON request, does nothing.
func TestReleaseReusesThePayload(t *testing.T) {
	body := func(scale float64) ([]byte, []float64) {
		data := make([]float64, 96*96)
		for i := range data {
			data[i] = scale * math.Sin(float64(i))
		}
		blob, _ := httpapi.EncodeJob(httpapi.Job{Matrix: httpapi.Matrix{M: 96, N: 96, Data: data}})
		return blob, data
	}
	aBlob, aData := body(1e3)
	bBlob, bData := body(1)
	reused := 0
	for range 8 {
		a, _, err := read(aBlob, true, true, 1<<20)
		if err != nil || !sameBits(a.Data, aData) {
			t.Fatalf("A: %v", err)
		}
		first := &a.Data[0]
		a.Release()
		a.Release()
		b, _, err := read(bBlob, true, true, 1<<20)
		if err != nil || !sameBits(b.Data, bData) || cap(b.Data) != len(bData) {
			t.Fatalf("B after A's release: %v", err)
		}
		if &b.Data[0] == first {
			reused++
		}
		b.Release()
	}
	if reused == 0 {
		t.Fatal("no sized body decoded into a released payload buffer")
	}
	text, _ := json.Marshal(httpapi.Job{Matrix: httpapi.Matrix{M: 1, N: 2, Data: []float64{3, 4}}})
	j, _, err := read(text, false, true, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	j.Release()
	if !sameBits(j.Data, []float64{3, 4}) {
		t.Fatal("releasing a JSON request touched its matrix")
	}
}

// TestBodyCapBothCodecs: a body over the cap is 413 in either codec, and
// a binary body exactly at the cap is read.
func TestBodyCapBothCodecs(t *testing.T) {
	job := httpapi.Job{Matrix: httpapi.Matrix{M: 16, N: 16, Data: make([]float64, 256)}}
	blob, _ := httpapi.EncodeJob(job)
	if _, status, err := read(blob, true, true, int64(len(blob))); err != nil {
		t.Fatalf("binary body at the cap: %d %v", status, err)
	}
	for _, sized := range []bool{true, false} {
		if _, status, _ := read(blob, true, sized, int64(len(blob))-1); status != http.StatusRequestEntityTooLarge {
			t.Fatalf("binary body over the cap (sized %v): status %d, want 413", sized, status)
		}
	}
	text, _ := json.Marshal(job)
	if _, status, err := read(text, false, true, int64(len(text))-1); status != http.StatusRequestEntityTooLarge || !strings.Contains(err.Error(), "-max-body-mb") {
		t.Fatalf("JSON body over the cap: %d %v", status, err)
	}
}

// tall is the benchmark's serve_tall shape: 4096×256, 8 MiB of float64.
func tall() httpapi.Job {
	const m, n = 4096, 256
	data := make([]float64, m*n)
	for i := range data {
		data[i] = math.Sin(float64(i)) * 1e3
	}
	return httpapi.Job{Matrix: httpapi.Matrix{M: m, N: n, Data: data}, Options: &httpapi.Options{}}
}

// TestTallDecodeAllocatesThePayloadOnce holds server-side decoding of
// the tall body to its payload plus 64 KiB: the []float64 the solver
// reads is the one the wire was decoded into.
func TestTallDecodeAllocatesThePayloadOnce(t *testing.T) {
	job := tall()
	blob, _ := httpapi.EncodeJob(job)
	r := httptest.NewRequest(http.MethodPost, "/v1/singular-values", bytes.NewReader(blob))
	r.Header.Set("Content-Type", httpapi.BinaryMediaType)
	w := httptest.NewRecorder()
	var req *httpapi.Request
	var err error
	n := allocated(func() { req, _, err = httpapi.ReadRequest(w, r, 32<<20) })
	if err != nil || !sameBits(req.Data, job.Data) {
		t.Fatalf("tall body did not round-trip: %v", err)
	}
	if budget := uint64(8*len(job.Data) + 64<<10); n > budget {
		t.Fatalf("decoding allocated %d bytes, budget %d (payload + 64 KiB)", n, budget)
	}
}

func benchmarkDecode(b *testing.B, body []byte, contentType string) {
	b.ReportAllocs()
	b.SetBytes(int64(len(body)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := httptest.NewRequest(http.MethodPost, "/v1/singular-values", bytes.NewReader(body))
		r.Header.Set("Content-Type", contentType)
		if _, _, err := httpapi.ReadRequest(httptest.NewRecorder(), r, 32<<20); err != nil {
			b.Fatal(err)
		}
	}
}

// The pair behind the wire change: the same 4096×256 job through the
// front door in each codec (decode + validation, as the daemon runs it).
func BenchmarkReadRequestBinaryTall(b *testing.B) {
	blob, _ := httpapi.EncodeJob(tall())
	benchmarkDecode(b, blob, httpapi.BinaryMediaType)
}

func BenchmarkReadRequestJSONTall(b *testing.B) {
	text, _ := json.Marshal(tall())
	benchmarkDecode(b, text, "application/json")
}

func BenchmarkEncodeJobBinaryTall(b *testing.B) {
	job := tall()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := httpapi.EncodeJob(job); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncodeJobJSONTall(b *testing.B) {
	job := tall()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := json.Marshal(job); err != nil {
			b.Fatal(err)
		}
	}
}

// FuzzReadJob feeds arbitrary bodies to the front door under both
// content types, with and without a Content-Length. It must never
// panic, must answer a refusal with 400 or 413, must not allocate ahead
// of the bytes it was given in the binary codec, and every body it
// accepts must survive re-encoding: same dims, same bits, same options.
func FuzzReadJob(f *testing.F) {
	const maxBody = 1 << 20
	valid, _ := httpapi.EncodeJob(httpapi.Job{
		Matrix:  httpapi.Matrix{M: 3, N: 2, Data: []float64{1, 0, 0, 0, 2, 0}},
		Options: &httpapi.Options{NB: 2, Tree: "greedy"},
	})
	dims := strconv.Itoa(half)
	for _, body := range [][]byte{
		valid,
		valid[:len(valid)-1], // truncated payload
		valid[:11],           // truncated header
		valid[:4],            // magic only
		append(valid[:len(valid):len(valid)], 1, 2, 3),     // m·n·8 < remaining
		frame(`{"m":3,"n":3}`, 1, 2, 3, 4, 5, 6),           // m·n·8 > remaining
		frame(`{"m":` + dims + `,"n":` + dims + `}`),       // overflow dims
		frame(`{"m":1048576,"n":1048576}`, 1),              // past the cap
		append([]byte("BDM1"), 0xff, 0xff, 0, 0, '{', '}'), // header length past the body
		frame(`{"m":2,"n":2,"options":null}`, math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1)),
		frame(`{"m":1,"n":2,"options":{"tree":"bogus"}}`, 1, 2),
		frame(`{"m":1,"n":1,"extra":[1,2,3]}`, 5e-324),
		[]byte(`{"m":3,"n":2,"data":[1,0,0,0,2,0],"options":{"nb":2,"algorithm":"rbidiag"}}`),
		[]byte(`{"m":1,"n":1,"data":[5]} trailing`),
		[]byte(`{"m":` + dims + `,"n":` + dims + `,"data":[]}`),
		[]byte(`{"m":1,"n":1,"data":[1e999]}`),
		[]byte(`{"m":2,"n":2,"data":[1,2,3]}`),
		nil,
	} {
		for _, binary := range []bool{true, false} {
			f.Add(body, binary, true)
			f.Add(body, binary, false)
		}
	}
	f.Fuzz(func(t *testing.T, body []byte, binary, sized bool) {
		var req *httpapi.Request
		var status int
		var err error
		n := allocated(func() { req, status, err = read(body, binary, sized, maxBody) })
		if err != nil {
			if req != nil || (status != http.StatusBadRequest && status != http.StatusRequestEntityTooLarge) {
				t.Fatalf("refusal with status %d, request %v: %v", status, req, err)
			}
			return
		}
		if status != http.StatusOK || req.A.Rows() != req.M || req.A.Cols() != req.N || len(req.Data) != req.M*req.N {
			t.Fatalf("accepted with status %d, %dx%d over %d elements", status, req.M, req.N, len(req.Data))
		}
		// One chunk, the request and recorder, and the payload: once when
		// the length was declared, doubling up to it when it was not.
		if budget := uint64(2*len(body) + 128<<10); binary && n > budget {
			t.Fatalf("%d-byte binary body allocated %d bytes, budget %d", len(body), n, budget)
		}
		blob, err := httpapi.EncodeJob(req.Job)
		if err != nil {
			t.Fatalf("accepted job does not encode: %v", err)
		}
		again, _, err := read(blob, true, sized, int64(len(blob)))
		if err != nil {
			t.Fatalf("re-encoded job refused: %v", err)
		}
		if again.M != req.M || again.N != req.N || !sameBits(again.Data, req.Data) ||
			!reflect.DeepEqual(again.Options, req.Options) || !reflect.DeepEqual(again.Opts, req.Opts) {
			t.Fatalf("round trip changed the job:\n %+v\n %+v", req.Job, again.Job)
		}
	})
}

// FuzzDecodeResponse feeds arbitrary bodies to the client's decoder of a
// binary response, whose header it takes from the daemon on trust. It
// must never panic, must not allocate ahead of the bytes it was given
// (sized or not), and every frame it accepts must re-encode through
// EncodeResponse with its payload unchanged byte for byte, to a frame
// that decodes and re-encodes to itself.
func FuzzDecodeResponse(f *testing.F) {
	values, _ := httpapi.EncodeResponse(httpapi.ValuesResponse{S: []float64{2, 1}, CacheHit: true, Ms: 1.5, JobID: "j000001"})
	svd, _ := httpapi.EncodeResponse(httpapi.SVDResponse{
		U: httpapi.Matrix{M: 2, N: 1, Data: []float64{1, 0}}, S: []float64{3},
		V: httpapi.Matrix{M: 1, N: 1, Data: []float64{-1}}, Ms: 0.25,
	})
	dims := strconv.Itoa(half)
	for _, body := range [][]byte{
		values,
		svd,
		values[:len(values)-1], // truncated payload
		svd[:12],               // truncated header
		append(values[:len(values):len(values)], 0, 0, 0, 0, 0, 0, 0, 0), // payload past the header's
		frame(`{"s":1048576}`, 1), // forged count
		frame(`{"u":{"m":`+dims+`,"n":`+dims+`},"s":1,"v":{"m":1,"n":1}}`, 1, 2),
		frame(`{"u":{"m":-1,"n":2},"s":1,"v":{"m":1,"n":1}}`, 1),
		frame(`{"s":-3}`),
		frame(`{"s":2,"ms":1E5,"job_id":"<é>"}`, math.NaN(), math.Copysign(0, -1)),
		append([]byte("BDM1"), 0xff, 0xff, 0, 0, '{', '}'), // header length past the body
		nil,
	} {
		for _, sized := range []bool{true, false} {
			f.Add(body, sized, true)
			f.Add(body, sized, false)
		}
	}
	f.Fuzz(func(t *testing.T, body []byte, sized, vectors bool) {
		size := int64(-1)
		if sized {
			size = int64(len(body))
		}
		decode := func(b []byte, size int64) (any, error) {
			if vectors {
				var out httpapi.SVDResponse
				return out, httpapi.DecodeResponse(bytes.NewReader(b), size, &out)
			}
			var out httpapi.ValuesResponse
			return out, httpapi.DecodeResponse(bytes.NewReader(b), size, &out)
		}
		var out any
		var err error
		n := allocated(func() { out, err = decode(body, size) })
		// One chunk, the header, and the payload: once when the length was
		// declared, doubling up to it when it was not.
		if budget := uint64(2*len(body) + 128<<10); n > budget {
			t.Fatalf("%d-byte body allocated %d bytes, budget %d", len(body), n, budget)
		}
		if err != nil {
			return
		}
		blob, err := httpapi.EncodeResponse(out)
		if err != nil {
			// The decoder accepts any header of up to 4 KiB; re-encoding
			// one (escaping HTML, spelling numbers canonically) can outgrow
			// it. Nothing else may fail.
			if !strings.Contains(err.Error(), "the format allows") {
				t.Fatalf("accepted response does not encode: %v", err)
			}
			return
		}
		payload := 8 * floats(out)
		if len(body) < payload || !bytes.Equal(blob[len(blob)-payload:], body[len(body)-payload:]) {
			t.Fatalf("re-encoding changed the %d-byte payload", payload)
		}
		again, err := decode(blob, int64(len(blob)))
		if err != nil {
			t.Fatalf("re-encoded response refused: %v", err)
		}
		if twice, err := httpapi.EncodeResponse(again); err != nil || !bytes.Equal(twice, blob) {
			t.Fatalf("re-encoding is not a fixed point (%v):\n %q\n %q", err, blob, twice)
		}
	})
}

// floats counts the float64 words of a decoded response.
func floats(v any) int {
	switch r := v.(type) {
	case httpapi.ValuesResponse:
		return len(r.S)
	case httpapi.SVDResponse:
		return len(r.U.Data) + len(r.S) + len(r.V.Data)
	}
	return 0
}
