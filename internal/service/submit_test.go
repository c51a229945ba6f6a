package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"runtime"
	"strings"
	"testing"

	"gridsched/internal/etc"
)

// refDecodeSubmit is the submit decode decodeSubmit replaced, kept as
// its oracle: encoding/json's Decoder with unknown fields disallowed.
func refDecodeSubmit(body []byte) (jobRequest, error) {
	var req jobRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	err := dec.Decode(&req)
	return req, err
}

// requestDiff describes how two decoded requests differ, comparing
// floats by their bits and telling nil from empty; "" means identical.
func requestDiff(got, want jobRequest) string {
	if got.Solver != want.Solver || got.Instance != want.Instance || got.Seed != want.Seed {
		return fmt.Sprintf("envelope %q/%q/%d, want %q/%q/%d", got.Solver, got.Instance, got.Seed, want.Solver, want.Instance, want.Seed)
	}
	if (got.Budget == nil) != (want.Budget == nil) || got.Budget != nil && *got.Budget != *want.Budget {
		return fmt.Sprintf("budget %+v, want %+v", got.Budget, want.Budget)
	}
	gm, wm := got.Matrix, want.Matrix
	if (gm == nil) != (wm == nil) {
		return fmt.Sprintf("matrix %+v, want %+v", gm, wm)
	}
	if gm == nil {
		return ""
	}
	if gm.Name != wm.Name || gm.Tasks != wm.Tasks || gm.Machines != wm.Machines {
		return fmt.Sprintf("matrix %q %dx%d, want %q %dx%d", gm.Name, gm.Tasks, gm.Machines, wm.Name, wm.Tasks, wm.Machines)
	}
	if (gm.ETC == nil) != (wm.ETC == nil) || len(gm.ETC) != len(wm.ETC) {
		return fmt.Sprintf("etc %v (nil %v), want %v (nil %v)", gm.ETC, gm.ETC == nil, wm.ETC, wm.ETC == nil)
	}
	for i := range gm.ETC {
		if math.Float64bits(gm.ETC[i]) != math.Float64bits(wm.ETC[i]) {
			return fmt.Sprintf("etc[%d] = %v, want %v", i, gm.ETC[i], wm.ETC[i])
		}
	}
	return ""
}

// submitEdgeBodies seed the differential fuzz target: each rule the
// decoder shares with encoding/json, and each way to break it.
var submitEdgeBodies = []string{
	`{"solver":"minmin","matrix":{"tasks":2,"machines":2,"etc":[1,2,3,4]}}`,
	` { "solver" : "tabu" , "seed" : 7 , "budget" : { "max_duration" : "1s" , "max_evaluations" : 10 , "max_generations" : 3 } , "instance" : "u_c_hihi.0" } `,
	// Names: case-insensitive (with Unicode folding), escapes, repeats.
	`{"SOLVER":"minmin","Matrix":{"TASKS":2,"machines":2,"Etc":[1,2,3,4]}}`,
	`{"ſolver":"minmin","K":1}`,
	`{"solver":"minmin","matrix":{"name":"m"}}`,
	`{"solver":"x","Solver":"minmin"}`,
	`{"matrix":{"tasks":2},"matrix":{"machines":2,"etc":[1,2,3,4]}}`,
	`{"budget":{"max_evaluations":5},"budget":{"max_duration":"1s"}}`,
	`{"matrix":{"etc":[5,6,7]},"matrix":{"etc":[1]},"matrix":{"etc":[8,null,null]}}`,
	`{"matrix":{"etc":[1,2]},"matrix":{"etc":null},"matrix":{"etc":[null,3]}}`,
	`{"matrix":{"etc":[1,2]},"matrix":{"etc":[]},"matrix":{"etc":[null]}}`,
	`{"matrix":{"etc":[1,2,3]},"matrix":null,"matrix":{"etc":[null]}}`,
	// Unknown members, at every level.
	`{"bogus":1}`,
	`{"matrix":{"bogus":[1,{"a":null}]}}`,
	`{"budget":{"bogus":"x"}}`,
	// null.
	`{"solver":"minmin","seed":null}`,
	`{"solver":"a","solver":null,"seed":3,"seed":null}`,
	`{"matrix":null}`,
	`{"budget":{"max_evaluations":1},"budget":null}`,
	`{"matrix":{"etc":null}}`,
	`null`, `null0`, ` null `, `nul`, `nullx`, ``, `   `, `{}`, `{} trailing`, `{"solver":"a"}{"solver":"b"}`,
	// Numbers.
	`{"matrix":{"etc":[NaN]}}`, `{"matrix":{"etc":[0x10]}}`, `{"matrix":{"etc":[+1]}}`,
	`{"matrix":{"etc":[01]}}`, `{"matrix":{"etc":[1.]}}`, `{"matrix":{"etc":[1e400]}}`,
	`{"matrix":{"etc":[-0,1E+2,1e-400,0.1,-12.5e-3,1.7976931348623157e308,5e-324]}}`,
	`{"matrix":{"etc":[.5]}}`, `{"matrix":{"etc":[-]}}`, `{"matrix":{"etc":[1e]}}`, `{"matrix":{"etc":[Infinity]}}`,
	`{"seed":1e3}`, `{"seed":-1}`, `{"seed":-0}`, `{"matrix":{"tasks":-0}}`, `{"matrix":{"tasks":1.0}}`,
	`{"seed":18446744073709551615}`, `{"seed":18446744073709551616}`,
	`{"budget":{"max_evaluations":9223372036854775807}}`, `{"budget":{"max_evaluations":9223372036854775808}}`,
	// Strings.
	`{"solver":"minmin"}`, `{"solver":"\ud800"}`, "{\"matrix\":{\"name\":\"\xff\xfe\"}}",
	"{\"solver\":\"a\tb\"}", `{"solver":"\x"}`, `{"solver":"\u12"}`, `{"solver":"a\"b\\c\/d\b\f\n\r\t"}`,
	// Wrong types.
	`{"solver":1}`, `{"seed":"1"}`, `{"matrix":[]}`, `{"matrix":{"etc":["1"]}}`, `{"matrix":{"etc":[[1]]}}`,
	`{"matrix":{"etc":[1,"]",2]}}`, `{"matrix":{"etc":{}}}`, `{"budget":true}`, `true`, `1`, `"s"`, `[]`,
	// Syntax.
	`{"solver":"a",}`, `{,}`, `{"solver" "a"}`, `{"matrix":{"etc":[1,2 3]}}`, `{"matrix":{"etc":[1,,2]}}`,
	`{"matrix":{"etc":[1,]}}`, `{"matrix":{"etc":[,1]}}`, `{"bogus":[1,]}`, `{"bogus":tru}`,
	// Cut short.
	`{"solver":"minmin"`, `{"matrix":{"etc":[1,2,`, `{"bogus":[[[`, `{"solver":"mi`, `{"seed":1`, `-`,
	`{"bogus":` + strings.Repeat("[", 10000) + strings.Repeat("]", 10000) + `}`,
}

// FuzzSubmitDecodeMatchesStd checks decodeSubmit against encoding/json
// on any body: both accept or both reject, a cut-short body is
// io.ErrUnexpectedEOF (io.EOF when empty) for both, and an accepted
// body decodes to the same request, etc compared by Float64bits. With
// a cap of three entries the decoder may also reject, but only for the
// cap.
func FuzzSubmitDecodeMatchesStd(f *testing.F) {
	for _, b := range submitEdgeBodies {
		f.Add([]byte(b))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		want, werr := refDecodeSubmit(body)
		got, gerr := decodeSubmit(body, -1)
		if (gerr == nil) != (werr == nil) {
			t.Fatalf("%q: decodeSubmit err %v, encoding/json err %v", body, gerr, werr)
		}
		if (gerr == io.EOF) != (werr == io.EOF) || (gerr == io.ErrUnexpectedEOF) != (werr == io.ErrUnexpectedEOF) {
			t.Fatalf("%q: decodeSubmit err %v, encoding/json err %v", body, gerr, werr)
		}
		if werr == nil {
			if diff := requestDiff(got, want); diff != "" {
				t.Fatalf("%q: %s", body, diff)
			}
		}
		capped, cerr := decodeSubmit(body, 3)
		switch {
		case cerr == nil && werr != nil:
			t.Fatalf("%q: capped decode accepted, encoding/json err %v", body, werr)
		case cerr == nil:
			if diff := requestDiff(capped, want); diff != "" {
				t.Fatalf("%q: capped: %s", body, diff)
			}
		case werr == nil && !strings.Contains(cerr.Error(), "entry limit"):
			t.Fatalf("%q: capped decode rejected with %v", body, cerr)
		}
	})
}

// TestSubmitDecodeEdgeCases pins the HTTP status of each decoding rule.
// decodeErr marks a 400 from the decoder ("decoding request: …") as
// opposed to one from Submit, for a body that decodes but is not a
// valid job.
func TestSubmitDecodeEdgeCases(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	const m = `"matrix":{"tasks":2,"machines":2,"etc":[1,2,3,4]}`
	cases := []struct {
		name      string
		body      string
		status    int
		decodeErr bool
	}{
		{"valid", `{"solver":"minmin",` + m + `}`, 202, false},
		{"case-insensitive names", `{"SOLVER":"minmin","Matrix":{"TASKS":2,"Machines":2,"eTC":[1,2,3,4]}}`, 202, false},
		{"escaped name and value", `{"sol\u0076er":"min\u006din",` + m + `}`, 202, false},
		{"last repeat wins", `{"solver":"nope","solver":"minmin",` + m + `}`, 202, false},
		{"last repeat wins, bad", `{"solver":"minmin","solver":"nope",` + m + `}`, 400, false},
		{"repeated matrix merges", `{"solver":"minmin","matrix":{"tasks":2,"machines":2},"matrix":{"etc":[1,2,3,4]}}`, 202, false},
		{"repeated etc: last length wins", `{"solver":"minmin","matrix":{"tasks":2,"machines":2,"etc":[1,2,3,4],"etc":[5,null]}}`, 400, false},
		{"unknown field", `{"solver":"minmin","bogus":1,` + m + `}`, 400, true},
		{"unknown nested field", `{"solver":"minmin","matrix":{"tasks":2,"machines":2,"etc":[1,2,3,4],"bogus":1}}`, 400, true},
		{"unknown budget field", `{"solver":"minmin","budget":{"bogus":1},` + m + `}`, 400, true},
		{"null scalar keeps value", `{"solver":"minmin","solver":null,"seed":null,` + m + `}`, 202, false},
		{"null matrix clears it", `{"solver":"minmin",` + m + `,"matrix":null}`, 400, false},
		{"null etc clears it", `{"solver":"minmin","matrix":{"tasks":2,"machines":2,"etc":[1,2,3,4],"etc":null}}`, 400, false},
		{"top-level null", `null`, 400, false},
		{"top-level null then bytes", `null0`, 400, false},
		{"trailing bytes ignored", `{"solver":"minmin",` + m + `} trailing`, 202, false},
		{"empty body", ``, 400, true},
		{"cut short", `{"solver":"minmin",` + m, 400, true},
		{"NaN", `{"solver":"minmin","matrix":{"tasks":1,"machines":1,"etc":[NaN]}}`, 400, true},
		{"hex", `{"solver":"minmin","matrix":{"tasks":1,"machines":1,"etc":[0x10]}}`, 400, true},
		{"plus sign", `{"solver":"minmin","matrix":{"tasks":1,"machines":1,"etc":[+1]}}`, 400, true},
		{"leading zero", `{"solver":"minmin","matrix":{"tasks":1,"machines":1,"etc":[01]}}`, 400, true},
		{"bare point", `{"solver":"minmin","matrix":{"tasks":1,"machines":1,"etc":[1.]}}`, 400, true},
		{"float overflow", `{"solver":"minmin","matrix":{"tasks":1,"machines":1,"etc":[1e400]}}`, 400, true},
		{"exponent in integer", `{"solver":"minmin","matrix":{"tasks":1e0,"machines":1,"etc":[1]}}`, 400, true},
		{"negative seed", `{"solver":"minmin","seed":-1,` + m + `}`, 400, true},
		{"float forms", `{"solver":"minmin","matrix":{"tasks":2,"machines":2,"etc":[1E+2,0.5,1e-3,2.5e1]}}`, 202, false},
		{"wrong type", `{"solver":"minmin","seed":"1",` + m + `}`, 400, true},
		{"raw control character", "{\"solver\":\"min\tmin\"," + m + "}", 400, true},
		{"trailing comma", `{"solver":"minmin",` + m + `,}`, 400, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var out struct {
				Error string `json:"error"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != tc.status {
				t.Fatalf("status %d (%s), want %d", resp.StatusCode, out.Error, tc.status)
			}
			if got := strings.HasPrefix(out.Error, "decoding request: "); got != tc.decodeErr {
				t.Fatalf("error %q: decoder error %v, want %v", out.Error, got, tc.decodeErr)
			}
		})
	}
}

// TestSubmitMatrixCapWhileDecoding checks that an etc array past the
// matrix-entry cap is refused while decoding: a 400 over HTTP, and the
// decode allocates next to nothing however long the array is, where
// encoding/json built the whole slice first.
func TestSubmitMatrixCapWhileDecoding(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, MaxMatrixEntries: 10000})
	entries := func(n int) string {
		return `{"solver":"minmin","matrix":{"tasks":100,"machines":100,"etc":[` + strings.Repeat("1,", n-1) + `1]}}`
	}
	for n, want := range map[int]int{10000: http.StatusAccepted, 10001: http.StatusBadRequest} {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(entries(n)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("%d entries: status %d, want %d", n, resp.StatusCode, want)
		}
	}

	body := []byte(entries(1 << 20)) // 2 MiB of body, 8 MiB as []float64
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := decodeSubmit(body, 10000)
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "10000-entry limit") {
		t.Fatalf("decode past the cap: err %v", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<10 {
		t.Fatalf("decode past the cap allocated %d bytes, want O(cap) (< 64 KiB)", grew)
	}
	// A negative cap disables the check.
	if req, err := decodeSubmit(body, -1); err != nil || len(req.Matrix.ETC) != 1<<20 {
		t.Fatalf("uncapped decode: err %v", err)
	}
}

// TestSubmitBodyIgnoresContentLength sends bodies whose Content-Length
// lies, and one with none, over a raw connection: the handler reads what
// actually arrives and allocates for that, not for the declared length.
func TestSubmitBodyIgnoresContentLength(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	const valid = `{"solver":"minmin","matrix":{"tasks":2,"machines":2,"etc":[1,2,3,4]}}`
	post := func(t *testing.T, header, body string) int {
		t.Helper()
		conn, err := net.Dial("tcp", ts.Listener.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if _, err := io.WriteString(conn, "POST /v1/jobs HTTP/1.1\r\nHost: test\r\nContent-Type: application/json\r\n"+header+"\r\n\r\n"+body); err != nil {
			t.Fatal(err)
		}
		if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
			t.Fatal(err)
		}
		resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	t.Run("declares 64 MiB, sends 10 bytes", func(t *testing.T) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		code := post(t, fmt.Sprintf("Content-Length: %d", maxSubmitBody), `{"solver":`)
		runtime.ReadMemStats(&after)
		if code != http.StatusBadRequest {
			t.Fatalf("status %d, want 400", code)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 4<<20 {
			t.Fatalf("request allocated %d bytes for a 10-byte body", grew)
		}
	})
	t.Run("declares fewer bytes than it sends", func(t *testing.T) {
		if code := post(t, fmt.Sprintf("Content-Length: %d", len(valid)-5), valid); code != http.StatusBadRequest {
			t.Fatalf("status %d, want 400", code)
		}
	})
	t.Run("chunked, no length", func(t *testing.T) {
		chunked := fmt.Sprintf("%x\r\n%s\r\n%x\r\n%s\r\n0\r\n\r\n", 10, valid[:10], len(valid)-10, valid[10:])
		if code := post(t, "Transfer-Encoding: chunked", chunked); code != http.StatusAccepted {
			t.Fatalf("status %d, want 202", code)
		}
	})
}

// deadlineBody builds a 2048×32 submit body the way the repository
// benchmark's deadline-inline workload does: json.Marshal of the
// generated matrix behind a pa-cga envelope.
func deadlineBody(tb testing.TB) []byte {
	tb.Helper()
	gen, err := etc.Generate(etc.GenSpec{Class: etc.AllClasses()[0], Tasks: 2048, Machines: 32, Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	m, err := json.Marshal(map[string]any{"name": "inline-" + gen.Name, "tasks": 2048, "machines": 32, "etc": gen.Row})
	if err != nil {
		tb.Fatal(err)
	}
	return append(append([]byte(`{"solver":"pa-cga","seed":12345,"budget":{"max_duration":"20ms"},"matrix":`), m...), '}')
}

// TestSubmitDecodeAllocs pins a warm decode of a deadline-inline body to
// its results: the matrix and budget structs, the etc slice and the
// three strings.
func TestSubmitDecodeAllocs(t *testing.T) {
	body := deadlineBody(t)
	want, err := refDecodeSubmit(body)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 0, len(body)+1)
	rd := bytes.NewReader(nil)
	var got jobRequest
	allocs := testing.AllocsPerRun(10, func() {
		rd.Reset(body)
		data, err := readBody(rd, buf, int64(len(body)))
		if err == nil {
			got, err = decodeSubmit(data, 1<<20)
		}
		if err != nil {
			t.Fatal(err)
		}
	})
	if diff := requestDiff(got, want); diff != "" {
		t.Fatal(diff)
	}
	if allocs > 6 {
		t.Fatalf("warm decode: %.0f allocs, want <= 6", allocs)
	}
}

var submitSink jobRequest

// BenchmarkSubmitDecode compares encoding/json and decodeSubmit on a
// 2048×32 deadline-inline body.
func BenchmarkSubmitDecode(b *testing.B) {
	body := deadlineBody(b)
	for _, bc := range []struct {
		name   string
		decode func([]byte) (jobRequest, error)
	}{
		{"std", refDecodeSubmit},
		{"single-pass", func(data []byte) (jobRequest, error) { return decodeSubmit(data, 1<<20) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for b.Loop() {
				req, err := bc.decode(body)
				if err != nil {
					b.Fatal(err)
				}
				submitSink = req
			}
		})
	}
}
