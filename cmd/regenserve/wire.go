package main

import (
	"bytes"
	"errors"
	"fmt"
	"strconv"
)

// The request bodies are decoded in one pass over their bytes: numbers are
// parsed straight into the wire rows, with no reflection and no allocation
// per row. The decoder accepts a subset of what encoding/json accepts, and
// a body it accepts decodes to the same values as there, floats bit for bit
// (FuzzWireRequest holds the two to that). Keys match the field names
// case-insensitively in ASCII, and a member whose value is null counts as
// absent, both as in encoding/json. It is stricter in five ways, each
// answered with an error naming the field or the offset:
//
//   - a null inside an array (encoding/json reads it as 0);
//   - a duplicate key (encoding/json keeps the last);
//   - anything but whitespace after the top-level object;
//   - a string with an escape sequence, a control byte or a non-ASCII
//     byte; no legal value of any string field has one;
//   - a query whose times are absent, null or empty, which no method can
//     serve (core.CheckTimes).

// decodeCompile decodes a POST /v1/compile body.
func decodeCompile(b []byte) (compileRequest, error) {
	var req compileRequest
	r := &reader{b: b}
	err := r.body(func(key []byte) (err error) {
		if string(key) == "prebuild_horizon" {
			req.PrebuildHorizon, err = r.float()
			return err
		}
		return r.compileMember(key, &req)
	})
	return req, err
}

// decodeQuery decodes a POST /v1/query body.
func decodeQuery(b []byte) (queryRequest, error) {
	var req queryRequest
	var c compileRequest // an inline model and its compile options
	r := &reader{b: b}
	err := r.body(func(key []byte) (err error) {
		switch string(key) {
		case "model_id":
			req.ModelID, err = r.text()
		case "queries":
			req.Queries, err = list(r, shortestQuery, (*reader).query)
		case "degrade":
			req.Degrade, err = r.text()
		default:
			err = r.compileMember(key, &c)
		}
		return err
	})
	req.Model, req.RegenState, req.Epsilon, req.DisableRetention, req.Compact, req.HorizonBuckets, req.Inverter, req.TimeoutMS =
		c.Model, c.RegenState, c.Epsilon, c.DisableRetention, c.Compact, c.HorizonBuckets, c.Inverter, c.TimeoutMS
	return req, err
}

// compileMember decodes a member both request bodies carry: the model, its
// compile options and the request's timeout.
func (r *reader) compileMember(key []byte, c *compileRequest) (err error) {
	var n int64
	switch string(key) {
	case "model":
		c.Model, err = r.model()
	case "regen_state":
		c.RegenState, err = r.intPtr()
	case "epsilon":
		c.Epsilon, err = r.float()
	case "disable_retention":
		c.DisableRetention, err = r.boolean()
	case "compact":
		c.Compact, err = r.boolean()
	case "horizon_buckets":
		n, err = r.integer(strconv.IntSize)
		c.HorizonBuckets = int(n)
	case "inverter":
		c.Inverter, err = r.text()
	case "timeout_ms":
		c.TimeoutMS, err = r.integer(64)
	default:
		err = errUnknownField
	}
	return err
}

func (r *reader) model() (*modelJSON, error) {
	if r.null() {
		return nil, nil
	}
	m := new(modelJSON)
	err := r.object(func(key []byte) (err error) {
		var n int64
		switch string(key) {
		case "states":
			n, err = r.integer(strconv.IntSize)
			m.States = int(n)
		case "transitions":
			m.Transitions, err = list(r, "[0,0,0]", (*reader).transition)
		case "initial":
			m.Initial, err = list(r, "[0,0]", (*reader).initial)
		default:
			err = errUnknownField
		}
		return err
	})
	return m, err
}

// shortestQuery is the shortest query that decodes: it needs a time.
const shortestQuery = `{"times":[0]}`

func (r *reader) query() (queryJSON, error) {
	var q queryJSON
	err := r.object(func(key []byte) (err error) {
		switch string(key) {
		case "method":
			q.Method, err = r.text()
		case "measure":
			q.Measure, err = r.text()
		case "rewards":
			q.Rewards, err = list(r, "0", (*reader).float)
		case "times":
			q.Times, err = list(r, "0", (*reader).float)
		case "bounds":
			q.Bounds, err = r.boolean()
		case "inverter":
			q.Inverter, err = r.text()
		default:
			err = errUnknownField
		}
		return err
	})
	if err == nil && len(q.Times) == 0 {
		err = &decodeError{path: "times", msg: "missing or empty; a query needs at least one time"}
	}
	return q, err
}

func (r *reader) transition() (row [3]float64, err error) {
	err = r.row(row[:], "[from, to, rate]")
	return row, err
}

func (r *reader) initial() (row [2]float64, err error) {
	err = r.row(row[:], "[state, probability]")
	return row, err
}

// reader walks a request body. The value readers (float, integer, intPtr,
// boolean, text, model, list) decode null as their zero value, which is how
// a null member counts as absent; elements rejects a null element before it
// calls one.
type reader struct {
	b   []byte
	pos int
}

// decodeError is a decoding failure; path names the field it sits in, as
// in model.transitions[3].
type decodeError struct {
	path, msg string
}

func (e *decodeError) Error() string {
	if e.path == "" {
		return e.msg
	}
	return e.path + ": " + e.msg
}

// errUnknownField is what a member decoder returns for a key it does not
// know; object turns it into an error naming the key.
var errUnknownField = errors.New("unknown field")

// within prefixes err's field path with seg, a member name or an [index].
func within(seg string, err error) error {
	e, ok := err.(*decodeError)
	if !ok {
		return err
	}
	switch {
	case e.path == "":
		e.path = seg
	case e.path[0] == '[':
		e.path = seg + e.path
	default:
		e.path = seg + "." + e.path
	}
	return e
}

func errorAt(pos int, format string, args ...any) error {
	return &decodeError{msg: fmt.Sprintf(format, args...) + " at offset " + strconv.Itoa(pos)}
}

// fail reports that the next token is not the wanted one.
func (r *reader) fail(want string) error {
	if r.pos >= len(r.b) {
		return &decodeError{msg: "want " + want + ", got the end of the body"}
	}
	return errorAt(r.pos, "want %s, got %q", want, r.b[r.pos])
}

// next skips whitespace and returns the next byte, 0 at the end.
func (r *reader) next() byte {
	for ; r.pos < len(r.b); r.pos++ {
		switch c := r.b[r.pos]; c {
		case ' ', '\t', '\n', '\r':
		default:
			return c
		}
	}
	return 0
}

// literal consumes lit if it comes next.
func (r *reader) literal(lit string) bool {
	if r.next() != lit[0] {
		return false
	}
	if end := r.pos + len(lit); end <= len(r.b) && string(r.b[r.pos:end]) == lit {
		r.pos = end
		return true
	}
	return false
}

func (r *reader) null() bool { return r.literal("null") }

// body decodes a whole request body: one object, or null for an empty one,
// with nothing after it but whitespace.
func (r *reader) body(member func(key []byte) error) error {
	if !r.null() {
		if err := r.object(member); err != nil {
			return err
		}
	}
	if r.next(); r.pos < len(r.b) {
		return errorAt(r.pos, "data after the top-level object")
	}
	return nil
}

// object decodes an object, calling member with each key folded to lower
// case ASCII to decode its value. A key that repeats under that folding is
// a duplicate.
func (r *reader) object(member func(key []byte) error) error {
	if r.next() != '{' {
		return r.fail("an object")
	}
	r.pos++
	if r.next() == '}' {
		r.pos++
		return nil
	}
	var fold [24]byte
	var seenBuf [12][]byte
	seen := seenBuf[:0]
	for {
		r.next()
		at := r.pos
		key, err := r.str()
		if err != nil {
			return err
		}
		for _, k := range seen {
			if bytes.EqualFold(k, key) {
				return errorAt(at, "duplicate field %q", key)
			}
		}
		seen = append(seen, key)
		if r.next() != ':' {
			return r.fail("':'")
		}
		r.pos++
		name := lower(fold[:0], key)
		if err := member(name); err == errUnknownField {
			return errorAt(at, "unknown field %q", key)
		} else if err != nil {
			return within(string(name), err)
		}
		switch r.next() {
		case ',':
			r.pos++
		case '}':
			r.pos++
			return nil
		default:
			return r.fail("',' or '}'")
		}
	}
}

func lower(dst, s []byte) []byte {
	for _, c := range s {
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		dst = append(dst, c)
	}
	return dst
}

// elements decodes an array, calling elem to decode element i. A null
// element is an error.
func (r *reader) elements(elem func(i int) error) error {
	if r.next() != '[' {
		return r.fail("an array")
	}
	r.pos++
	if r.next() == ']' {
		r.pos++
		return nil
	}
	for i := 0; ; i++ {
		r.next()
		at := r.pos
		var err error
		if r.null() {
			err = errorAt(at, "null inside an array")
		} else {
			err = elem(i)
		}
		if err != nil {
			return within("["+strconv.Itoa(i)+"]", err)
		}
		switch r.next() {
		case ',':
			r.pos++
		case ']':
			r.pos++
			return nil
		default:
			return r.fail("',' or ']'")
		}
	}
}

// list decodes an array member whose elements elem decodes. An empty array
// decodes to an empty slice and null to nil, as in encoding/json. shortest
// is the shortest valid element ("0", "[0,0,0]", shortestQuery), which
// bounds the capacity count reserves.
func list[T any](r *reader, shortest string, elem func(*reader) (T, error)) ([]T, error) {
	if r.null() {
		return nil, nil
	}
	out := make([]T, 0, r.count(shortest))
	err := r.elements(func(int) error {
		v, err := elem(r)
		out = append(out, v)
		return err
	})
	return out, err
}

// count returns the number of elements of the array that comes next, for
// list to size its slice once. shortest tells the element kind. Arrays and
// objects are counted by hopping from each one's opening byte to the first
// closing byte after it, as long as commas separate them; numbers as one
// more than the commas before the first ']'. The count is exact for a valid
// array of flat rows or of numbers, and may fall short otherwise, which
// only costs list an append. It is capped at the most elements of
// shortest's length, with their commas and the closing bracket, that the
// rest of the body could hold, so a malformed body never reserves more
// than a valid one of the same size.
func (r *reader) count(shortest string) int {
	if r.next() != '[' {
		return 0
	}
	t := reader{b: r.b, pos: r.pos + 1}
	n := 0
	if open := shortest[0]; open == '[' || open == '{' {
		end := open + 2 // ']' or '}'
		for t.next() == open {
			n++
			j := bytes.IndexByte(t.b[t.pos:], end)
			if j < 0 {
				break
			}
			t.pos += j + 1
			if t.next() != ',' {
				break
			}
			t.pos++
		}
	} else if t.next() != ']' {
		rest := t.b[t.pos:]
		if j := bytes.IndexByte(rest, ']'); j >= 0 {
			rest = rest[:j]
		}
		n = bytes.Count(rest, []byte{','}) + 1
	}
	return min(n, (len(r.b)-r.pos-1)/(len(shortest)+1))
}

// row decodes an array of exactly len(dst) numbers into dst; fields names
// them for the error when the count differs.
func (r *reader) row(dst []float64, fields string) error {
	n := 0
	err := r.elements(func(i int) error {
		v, err := r.float()
		if i < len(dst) {
			dst[i] = v
		}
		n++
		return err
	})
	if err == nil && n != len(dst) {
		err = &decodeError{msg: fmt.Sprintf("want %s, got %d fields", fields, n)}
	}
	return err
}

// number scans a number in JSON's grammar and returns its text. When the
// number is a decimal mantissa below 2⁵³ times a power of ten within
// ±22, it also returns the two, with exact true: both are then exact in
// float64, so one IEEE division or multiplication rounds mantissa·10^exp
// correctly, to the same float strconv.ParseFloat returns.
func (r *reader) number() (tok []byte, mant uint64, exp int, exact bool, err error) {
	b, start := r.b, r.pos
	i := start
	if i < len(b) && b[i] == '-' {
		i++
	}
	exact = true
	// mantissa appends the digits from i on.
	mantissa := func(i int, frac bool) int {
		for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
			if mant >= 1<<53/10 {
				exact = false
				continue
			}
			mant = mant*10 + uint64(b[i]-'0')
			if frac {
				exp--
			}
		}
		return i
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = mantissa(i, false)
	default:
		r.pos = i
		return nil, 0, 0, false, r.fail("a number")
	}
	if i < len(b) && b[i] == '.' {
		if i++; i == len(b) || b[i] < '0' || b[i] > '9' {
			r.pos = i
			return nil, 0, 0, false, r.fail("a digit")
		}
		i = mantissa(i, true)
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		neg := false
		if i++; i < len(b) && (b[i] == '+' || b[i] == '-') {
			neg = b[i] == '-'
			i++
		}
		if i == len(b) || b[i] < '0' || b[i] > '9' {
			r.pos = i
			return nil, 0, 0, false, r.fail("a digit")
		}
		e := 0
		for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
			if e < 1000 {
				e = e*10 + int(b[i]-'0')
			}
		}
		if neg {
			e = -e
		}
		exp += e
	}
	r.pos = i
	return b[start:i], mant, exp, exact && -22 <= exp && exp <= 22, nil
}

// pow10 holds the powers of ten that are exact in float64.
var pow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22}

// float decodes a number to exactly what strconv.ParseFloat returns for its
// text; a number beyond the float64 range is an error.
func (r *reader) float() (float64, error) {
	if r.null() {
		return 0, nil
	}
	at := r.pos
	tok, mant, exp, exact, err := r.number()
	if err != nil {
		return 0, err
	}
	if exact {
		f := float64(mant)
		if exp < 0 {
			f /= pow10[-exp]
		} else {
			f *= pow10[exp]
		}
		if tok[0] == '-' {
			f = -f
		}
		return f, nil
	}
	f, err := strconv.ParseFloat(string(tok), 64)
	if err != nil {
		return 0, errorAt(at, "%s is out of the float64 range", tok)
	}
	return f, nil
}

// integer decodes a number that must be an integer of the given bit size:
// no fraction, no exponent, no overflow.
func (r *reader) integer(bits int) (int64, error) {
	if r.null() {
		return 0, nil
	}
	at := r.pos
	tok, _, _, _, err := r.number()
	if err != nil {
		return 0, err
	}
	n, err := strconv.ParseInt(string(tok), 10, bits)
	if err != nil {
		return 0, errorAt(at, "%s is not a %d-bit integer", tok, bits)
	}
	return n, nil
}

func (r *reader) intPtr() (*int, error) {
	if r.null() {
		return nil, nil
	}
	n, err := r.integer(strconv.IntSize)
	v := int(n)
	return &v, err
}

func (r *reader) boolean() (bool, error) {
	switch {
	case r.null(), r.literal("false"):
		return false, nil
	case r.literal("true"):
		return true, nil
	}
	return false, r.fail("true or false")
}

func (r *reader) text() (string, error) {
	if r.null() {
		return "", nil
	}
	s, err := r.str()
	return string(s), err
}

// str scans a string and returns its contents.
func (r *reader) str() ([]byte, error) {
	if r.next() != '"' {
		return nil, r.fail("a string")
	}
	start := r.pos + 1
	for i := start; i < len(r.b); i++ {
		switch c := r.b[i]; {
		case c == '"':
			r.pos = i + 1
			return r.b[start:i], nil
		case c == '\\':
			return nil, errorAt(i, "escape sequence in a string")
		case c < 0x20:
			return nil, errorAt(i, "control byte in a string")
		case c >= 0x80:
			return nil, errorAt(i, "non-ASCII byte in a string")
		}
	}
	r.pos = len(r.b)
	return nil, r.fail("'\"'")
}
