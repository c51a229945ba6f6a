package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"unicode/utf8"
)

// The submit body is decoded in one pass over a buffered copy: the
// envelope is walked directly, the inline matrix's etc array goes
// straight into one exactly-sized []float64, and each number is
// converted with strconv.ParseFloat, as encoding/json converts it, so
// every value is bit-identical to what encoding/json would produce.
//
// decodeSubmit accepts exactly the bodies that
//
//	dec := json.NewDecoder(body)
//	dec.DisallowUnknownFields()
//	dec.Decode(&req)
//
// accepts, and yields the same jobRequest:
//
//   - member names match the struct's field names exactly or, failing
//     that, under bytes.EqualFold;
//   - a repeated member overwrites, and a repeated matrix or budget
//     object merges into the struct already decoded;
//   - a member the struct lacks is an error, at every level;
//   - null leaves a string or integer as it was and clears the matrix,
//     the budget or the etc array;
//   - numbers follow the strict JSON grammar, integers parse with
//     ParseInt/ParseUint (so 1e3 and a negative seed are errors) and
//     floats with ParseFloat (so 1e400 is one);
//   - escaped strings and names, and strings that are not valid UTF-8,
//     are unquoted by encoding/json itself;
//   - bytes after the top-level value are ignored.
//
// As with encoding/json, a syntax error anywhere in the value wins over
// a type or unknown-member error, and a value cut short reports
// io.ErrUnexpectedEOF (io.EOF for an empty body), so handleSubmit can
// tell a truncated body from a malformed one. The one addition is the
// matrix cap: an etc array longer than a positive maxEntries is an
// error found before the array is allocated.

// maxNestingDepth is encoding/json's bound on nested arrays and
// objects; deeper input is a syntax error there, so it is one here.
const maxNestingDepth = 10000

var (
	requestFields = []string{"solver", "instance", "matrix", "budget", "seed"}
	matrixFields  = []string{"name", "tasks", "machines", "etc"}
	budgetFields  = []string{"max_duration", "max_evaluations", "max_generations"}
)

type submitDecoder struct {
	req  jobRequest
	data []byte
	off  int
	// depth counts the arrays and objects open around the read position.
	depth int
	// maxEntries, when positive, bounds the length of an etc array.
	maxEntries int
	// err is the first type, unknown-member or cap error. Decoding goes
	// on past it, checking syntax only, because a syntax error later in
	// the body is the one to report.
	err error
}

// decodeSubmit decodes one submit body. See the comment above for the
// rules it follows.
func decodeSubmit(data []byte, maxEntries int) (jobRequest, error) {
	d := &submitDecoder{data: data, maxEntries: maxEntries}
	d.space()
	var err error
	switch {
	case d.off == len(d.data):
		return jobRequest{}, io.EOF
	case d.data[d.off] == '{':
		err = d.object(requestFields)
	case d.data[d.off] == 'n':
		err = d.literal("null")
	default:
		err = d.mismatch("request", "object")
	}
	if err == nil {
		err = d.err
	}
	if err != nil {
		return jobRequest{}, err
	}
	return d.req, nil
}

// object decodes the object at the read position, whose members are
// those in fields.
func (d *submitDecoder) object(fields []string) error {
	d.off++ // '{'
	d.depth++
	for first := true; ; first = false {
		name, done, err := d.member(fields, first)
		if err != nil {
			return err
		}
		if done {
			d.depth--
			return nil
		}
		if err := d.field(name); err != nil {
			return err
		}
	}
}

// field decodes the value of the member name ("" when unknown). The
// request's, the matrix's and the budget's member names are all
// distinct, and a matrix or budget member is only decoded inside that
// object, when req.Matrix or req.Budget is the struct being filled.
func (d *submitDecoder) field(name string) error {
	req := &d.req
	switch name {
	case "solver":
		return d.str(name, &req.Solver)
	case "instance":
		return d.str(name, &req.Instance)
	case "seed":
		return decodeInt(d, name, &req.Seed)
	case "matrix":
		return nested(d, name, &req.Matrix, matrixFields)
	case "budget":
		return nested(d, name, &req.Budget, budgetFields)
	case "name":
		return d.str("matrix.name", &req.Matrix.Name)
	case "tasks":
		return decodeInt(d, "matrix.tasks", &req.Matrix.Tasks)
	case "machines":
		return decodeInt(d, "matrix.machines", &req.Matrix.Machines)
	case "etc":
		return d.etc(req.Matrix)
	case "max_duration":
		return d.str("budget.max_duration", &req.Budget.MaxDuration)
	case "max_evaluations":
		return decodeInt(d, "budget.max_evaluations", &req.Budget.MaxEvaluations)
	case "max_generations":
		return decodeInt(d, "budget.max_generations", &req.Budget.MaxGenerations)
	}
	return d.skip()
}

// nested decodes the matrix or budget member: null clears *dst, and an
// object decodes into the struct already there, so a repeated member
// merges as it does with encoding/json.
func nested[T any](d *submitDecoder, name string, dst **T, fields []string) error {
	switch d.peek() {
	case 'n':
		*dst = nil
		return d.literal("null")
	case '{':
	default:
		return d.mismatch(name, "object")
	}
	if *dst == nil {
		*dst = new(T)
	}
	return d.object(fields)
}

// etc decodes the etc array into m.ETC. Its length is the array's comma
// count plus one (the count is exact for an array of numbers and nulls,
// the only arrays that decode), so it is checked against the cap before
// anything is allocated. encoding/json decodes a repeated array over the
// slice already there: null leaves an element as it was, and the memory
// past the old length keeps its values. Decoding over the old backing
// array, or a copy of all of it, keeps that.
func (d *submitDecoder) etc(m *matrixJSON) error {
	switch d.peek() {
	case 'n':
		m.ETC = nil
		return d.literal("null")
	case '[':
	default:
		return d.mismatch("matrix.etc", "array")
	}
	start := d.off
	d.off++
	d.space()
	if d.peek() == ']' {
		d.off++
		m.ETC = []float64{}
		return nil
	}
	rest := d.data[d.off:]
	if end := bytes.IndexByte(rest, ']'); end >= 0 {
		rest = rest[:end]
	}
	n := bytes.Count(rest, []byte{','}) + 1
	if d.maxEntries > 0 && n > d.maxEntries {
		d.fail(fmt.Errorf("matrix.etc: more than the server's %d-entry limit", d.maxEntries))
		d.off = start
		return d.skip()
	}
	dst := m.ETC
	if cap(dst) >= n {
		dst = dst[:n]
	} else {
		grown := make([]float64, n)
		copy(grown, dst[:cap(dst)])
		dst = grown
	}
	m.ETC = dst
	for i := range dst {
		if i > 0 {
			d.space()
			if d.peek() != ',' {
				// Malformed: a valid array of numbers and nulls has
				// exactly the counted commas. Let the syntax check
				// report what is there.
				d.off = start
				return d.skip()
			}
			d.off++
			d.space()
		}
		switch c := d.peek(); {
		case c == 'n':
			if err := d.literal("null"); err != nil {
				return err
			}
		case c == '-' || '0' <= c && c <= '9':
			span, err := d.number()
			if err != nil {
				return err
			}
			v, err := strconv.ParseFloat(string(span), 64)
			if err != nil {
				d.fail(fmt.Errorf("matrix.etc: cannot decode number %s into float64", span))
			} else {
				dst[i] = v
			}
		default:
			d.typeError("matrix.etc element", "float64")
			d.off = start
			return d.skip()
		}
	}
	d.space()
	if d.peek() != ']' {
		d.off = start
		return d.skip()
	}
	d.off++
	return nil
}

// decodeInt decodes an integer member with ParseInt or ParseUint, as
// encoding/json does; null leaves *dst as it was.
func decodeInt[T ~int | ~int64 | ~uint64](d *submitDecoder, name string, dst *T) error {
	switch c := d.peek(); {
	case c == 'n':
		return d.literal("null")
	case c != '-' && (c < '0' || c > '9'):
		return d.mismatch(name, "integer")
	}
	span, err := d.number()
	if err != nil {
		return err
	}
	var v T
	ok := false
	if ^T(0) < 0 {
		n, err := strconv.ParseInt(string(span), 10, 64)
		v, ok = T(n), err == nil && int64(T(n)) == n
	} else {
		n, err := strconv.ParseUint(string(span), 10, 64)
		v, ok = T(n), err == nil && uint64(T(n)) == n
	}
	if !ok {
		d.fail(fmt.Errorf("%s: cannot decode number %s into %T", name, span, v))
		return nil
	}
	*dst = v
	return nil
}

// str decodes a string member; null leaves *dst as it was.
func (d *submitDecoder) str(name string, dst *string) error {
	switch d.peek() {
	case 'n':
		return d.literal("null")
	case '"':
	default:
		return d.mismatch(name, "string")
	}
	begin := d.off
	s, plain, err := d.stringSpan()
	if err != nil {
		return err
	}
	if plain {
		*dst = string(s)
		return nil
	}
	v, err := unquote(d.data[begin:d.off])
	if err != nil {
		return err
	}
	*dst = v
	return nil
}

// unquote decodes a quoted string that needs escapes resolved or
// invalid UTF-8 replaced, leaving both to encoding/json.
func unquote(quoted []byte) (string, error) {
	var s string
	if err := json.Unmarshal(quoted, &s); err != nil {
		return "", fmt.Errorf("unquoting %s: %w", quoted, err)
	}
	return s, nil
}

// member reads the next member name of the object being decoded, after
// its '{' (first) or the previous member's value, and positions d at
// the value. name is the field it matches, "" for an unknown member;
// done reports the closing '}'.
func (d *submitDecoder) member(fields []string, first bool) (name string, done bool, err error) {
	if done, err = d.next('}', first); done || err != nil {
		return "", done, err
	}
	if d.peek() != '"' {
		return "", false, d.syntax("looking for beginning of object key string")
	}
	begin := d.off
	key, plain, err := d.stringSpan()
	if err != nil {
		return "", false, err
	}
	if !plain {
		s, err := unquote(d.data[begin:d.off])
		if err != nil {
			return "", false, err
		}
		key = []byte(s)
	}
	name = matchField(key, fields)
	if name == "" {
		d.fail(fmt.Errorf("json: unknown field %q", key))
	}
	d.space()
	if d.peek() != ':' {
		return "", false, d.syntax("after object key")
	}
	d.off++
	d.space()
	return name, false, nil
}

// matchField returns the field that key names, or "": an exact match
// first, then a case-insensitive one, as encoding/json matches them.
func matchField(key []byte, fields []string) string {
	for _, f := range fields {
		if string(key) == f {
			return f
		}
	}
	for _, f := range fields {
		if bytes.EqualFold(key, []byte(f)) {
			return f
		}
	}
	return ""
}

// next steps to the next element of an array or object after its
// opening bracket (first) or the previous element, leaving d at the
// element; done reports that the closer was consumed instead.
func (d *submitDecoder) next(closer byte, first bool) (done bool, err error) {
	d.space()
	switch c := d.peek(); {
	case c == closer:
		d.off++
		return true, nil
	case first:
		return false, nil
	case c == ',':
		d.off++
		d.space()
		return false, nil
	}
	return false, d.syntax("after element")
}

// mismatch records that member name holds the wrong kind of value and
// skips the value.
func (d *submitDecoder) mismatch(name, want string) error {
	d.typeError(name, want)
	return d.skip()
}

// typeError records that the value at the read position cannot decode
// into name's type.
func (d *submitDecoder) typeError(name, want string) {
	kind := "number"
	switch d.peek() {
	case '{':
		kind = "object"
	case '[':
		kind = "array"
	case '"':
		kind = "string"
	case 't', 'f':
		kind = "bool"
	}
	d.fail(fmt.Errorf("json: cannot unmarshal %s into %s of type %s", kind, name, want))
}

// skip consumes one value, checking its syntax only.
func (d *submitDecoder) skip() error {
	switch c := d.peek(); c {
	case '{', '[':
		if d.depth >= maxNestingDepth {
			return d.syntax("exceeded max depth")
		}
		closer := c + 2 // '{'+2 == '}', '['+2 == ']'
		d.off++
		d.depth++
		for first := true; ; first = false {
			done, err := d.next(closer, first)
			if err != nil {
				return err
			}
			if done {
				d.depth--
				return nil
			}
			if c == '{' {
				if d.peek() != '"' {
					return d.syntax("looking for beginning of object key string")
				}
				if _, _, err := d.stringSpan(); err != nil {
					return err
				}
				d.space()
				if d.peek() != ':' {
					return d.syntax("after object key")
				}
				d.off++
				d.space()
			}
			if err := d.skip(); err != nil {
				return err
			}
		}
	case '"':
		_, _, err := d.stringSpan()
		return err
	case 't':
		return d.literal("true")
	case 'f':
		return d.literal("false")
	case 'n':
		return d.literal("null")
	default:
		if c == '-' || '0' <= c && c <= '9' {
			_, err := d.number()
			return err
		}
		return d.syntax("looking for beginning of value")
	}
}

// stringSpan consumes a quoted string and returns the bytes between the
// quotes. plain reports that they are the string's value as they stand:
// no escapes and valid UTF-8.
func (d *submitDecoder) stringSpan() (s []byte, plain bool, err error) {
	data, start := d.data, d.off+1
	ascii, escaped := true, false
	for i := start; i < len(data); i++ {
		switch c := data[i]; {
		case c == '"':
			d.off = i + 1
			s = data[start:i]
			return s, !escaped && (ascii || utf8.Valid(s)), nil
		case c < 0x20:
			d.off = i
			return nil, false, d.syntax("in string literal")
		case c >= utf8.RuneSelf:
			ascii = false
		case c == '\\':
			escaped = true
			n := 1 // bytes after the backslash
			if i+1 < len(data) && data[i+1] == 'u' {
				n = 5
			}
			for k := 1; k <= n; k++ {
				d.off = i + k
				switch e := d.peek(); {
				case k == 1 && strings.IndexByte(`"\/bfnrtu`, e) >= 0:
				case k > 1 && isHex(e):
				case k == 1:
					return nil, false, d.syntax("in string escape code")
				default:
					return nil, false, d.syntax("in \\u hexadecimal character escape")
				}
			}
			i += n
		}
	}
	d.off = len(data)
	return nil, false, io.ErrUnexpectedEOF
}

// number consumes a number in the strict JSON grammar and returns it.
func (d *submitDecoder) number() ([]byte, error) {
	data, start := d.data, d.off
	i := start
	if i < len(data) && data[i] == '-' {
		i++
	}
	switch {
	case i < len(data) && data[i] == '0':
		i++
	case i < len(data) && '1' <= data[i] && data[i] <= '9':
		i = digits(data, i+1)
	default:
		d.off = i
		return nil, d.syntax("in numeric literal")
	}
	if i < len(data) && data[i] == '.' {
		if i++; i == len(data) || !isDigit(data[i]) {
			d.off = i
			return nil, d.syntax("after decimal point in numeric literal")
		}
		i = digits(data, i)
	}
	if i < len(data) && (data[i] == 'e' || data[i] == 'E') {
		i++
		if i < len(data) && (data[i] == '+' || data[i] == '-') {
			i++
		}
		if i == len(data) || !isDigit(data[i]) {
			d.off = i
			return nil, d.syntax("in exponent of numeric literal")
		}
		i = digits(data, i)
	}
	d.off = i
	return data[start:i], nil
}

func (d *submitDecoder) literal(lit string) error {
	for i := 0; i < len(lit); i++ {
		if d.peek() != lit[i] {
			return d.syntax("in literal " + lit)
		}
		d.off++
	}
	return nil
}

func (d *submitDecoder) space() {
	for d.off < len(d.data) {
		switch d.data[d.off] {
		case ' ', '\t', '\n', '\r':
			d.off++
		default:
			return
		}
	}
}

// peek returns the byte at the read position, or 0 at the end.
func (d *submitDecoder) peek() byte {
	if d.off < len(d.data) {
		return d.data[d.off]
	}
	return 0
}

func (d *submitDecoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

// syntax reports a syntax error at the read position, or
// io.ErrUnexpectedEOF when the input ended there.
func (d *submitDecoder) syntax(context string) error {
	if d.off >= len(d.data) {
		return io.ErrUnexpectedEOF
	}
	return fmt.Errorf("invalid character %q %s (offset %d)", d.data[d.off], context, d.off)
}

func digits(data []byte, i int) int {
	for i < len(data) && isDigit(data[i]) {
		i++
	}
	return i
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

func isHex(c byte) bool {
	return isDigit(c) || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

// bodyBufs recycles submit body buffers. Nothing decodeSubmit returns
// points into the buffer, so it is free for reuse once decoded.
var bodyBufs = sync.Pool{New: func() any { return new([]byte) }}

// maxPooledBody bounds the buffers kept for reuse, so one large body
// does not keep its memory alive.
const maxPooledBody = 4 << 20

// readBody reads r to its end into buf's memory. It grows the buffer by
// doubling as bytes arrive, never beyond limit+1 (the byte that tells
// http.MaxBytesReader the body is too long), and never from the
// client's Content-Length: a request that declares 64 MB and sends ten
// bytes costs a few hundred.
func readBody(r io.Reader, buf []byte, limit int64) ([]byte, error) {
	buf = buf[:0]
	for {
		if len(buf) == cap(buf) {
			grown := make([]byte, len(buf), int(min(max(2*int64(cap(buf)), 512), limit+1)))
			copy(grown, buf)
			buf = grown
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}
