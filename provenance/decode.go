package provenance

import (
	"encoding/json"
	"math"
	"strings"
)

// decodeResult decodes one provenance/v1 answer into r as json.Unmarshal
// into a zeroed Result does: the same error-ness and a reflect.DeepEqual
// value. scanResult reads the documents this package's server writes;
// json.Unmarshal, the reference, reads every other.
func decodeResult(data []byte, r *Result) error {
	if scanResult(data, r) {
		return nil
	}
	*r = Result{}
	return json.Unmarshal(data, r)
}

// scanResult takes a document whose keys are Result, Edge, LineageEntry
// and Stats fields in their exact case, at most once per object; whose
// strings are printable ASCII with no backslash; whose numbers are
// non-negative integers with no leading zero, fraction or exponent,
// within their field's range; and which holds nothing else but true,
// false and JSON whitespace. It reports false, r untouched, for any
// other.
//
// The walk runs twice: once to validate and count, once to fill r. The
// filling walk allocates each slice once, at its element count (lists of
// one element type share a backing), and copies every string but the
// wire's constants into one arena of exactly their bytes, so the answer
// keeps no view of data.
func scanResult(data []byte, r *Result) bool {
	d := &scanner{data: data}
	var scratch Result
	if !d.document(&scratch) {
		return false
	}
	d.i, d.fill = 0, true
	d.arena.Grow(d.n.bytes)
	*r = Result{}
	return d.document(r)
}

// scanner is one walk over a document. The counting walk sums into n;
// the filling walk allocates from those sums.
type scanner struct {
	data  []byte
	i     int
	bad   bool // the scan does not take the document
	fill  bool
	n     struct{ strs, pages, edges, lins, bytes int }
	arena strings.Builder
	strs  []string // every id and upstream list's backing
	pages []uint64
	edges []Edge
	lins  []LineageEntry
}

func (d *scanner) document(r *Result) bool {
	var k members
	for d.expect('{'); d.member(&k); {
		switch string(k.key) {
		case "version":
			r.Version = d.text()
		case "kind":
			r.Kind = Kind(d.text())
		case "epoch":
			r.Epoch = d.uint(math.MaxUint64)
		case "degraded":
			r.Degraded = d.boolean()
		case "ids":
			r.IDs = array(d, &d.strs, &d.n.strs, (*scanner).text)
		case "edges":
			r.Edges = array(d, &d.edges, &d.n.edges, (*scanner).edge)
		case "lineages":
			r.Lineages = array(d, &d.lins, &d.n.lins, (*scanner).lineage)
		case "stats":
			r.Stats = box(d.fill, d.stats())
		case "valid":
			r.Valid = box(d.fill, d.boolean())
		case "detail":
			r.Detail = d.text()
		case "total":
			r.Total = d.int()
		case "next_cursor":
			r.NextCursor = d.text()
		default:
			d.bad = true
		}
	}
	d.ws()
	return !d.bad && d.i == len(d.data)
}

func (d *scanner) edge() (e Edge) {
	var k members
	for d.expect('{'); d.member(&k); {
		switch string(k.key) {
		case "from":
			e.From = d.text()
		case "to":
			e.To = d.text()
		case "kind":
			e.Kind = d.text()
		case "object":
			e.Object = d.text()
		case "pages":
			e.Pages = array(d, &d.pages, &d.n.pages, (*scanner).page)
		default:
			d.bad = true
		}
	}
	return e
}

func (d *scanner) lineage() (l LineageEntry) {
	var k members
	for d.expect('{'); d.member(&k); {
		switch string(k.key) {
		case "page":
			l.Page = d.page()
		case "reader":
			l.Reader = d.text()
		case "writer":
			l.Writer = d.text()
		case "upstream":
			l.Upstream = array(d, &d.strs, &d.n.strs, (*scanner).text)
		case "via_object":
			l.ViaObject = d.text()
		default:
			d.bad = true
		}
	}
	return l
}

func (d *scanner) stats() (st Stats) {
	var k members
	for d.expect('{'); d.member(&k); {
		switch string(k.key) {
		case "sub_computations":
			st.SubComputations = d.int()
		case "threads":
			st.Threads = d.int()
		case "thunks":
			st.Thunks = d.int()
		case "read_set_pages":
			st.ReadSetPages = d.int()
		case "write_set_pages":
			st.WriteSetPages = d.int()
		case "control_edges":
			st.ControlEdges = d.int()
		case "sync_edges":
			st.SyncEdges = d.int()
		case "data_edges":
			st.DataEdges = d.int()
		case "gap_threads":
			st.GapThreads = d.int()
		case "gap_intervals":
			st.GapIntervals = d.int()
		case "lost_trace_bytes":
			st.LostTraceBytes = d.page()
		default:
			d.bad = true
		}
	}
	return st
}

// array reads an array of what read reads: the counting walk counts its
// elements into *count, the filling walk appends them to *backing
// (allocated once, at the count) and returns its part of it.
func array[T any](d *scanner, backing *[]T, count *int, read func(*scanner) T) []T {
	d.expect('[')
	if d.fill && *backing == nil {
		*backing = make([]T, 0, *count)
	}
	from := len(*backing)
	for n := 0; d.next(']', &n); {
		if v := read(d); d.fill {
			*backing = append(*backing, v)
		} else {
			*count++
		}
	}
	if !d.fill {
		return nil
	}
	return (*backing)[from:len(*backing):len(*backing)]
}

// box points to a copy of v on the filling walk, nowhere on the counting one.
func box[T any](fill bool, v T) *T {
	if !fill {
		return nil
	}
	p := new(T)
	*p = v
	return p
}

// members is the walk of one object, past its brace: its keys so far
// and the current one.
type members struct {
	keys [12][]byte
	n    int
	key  []byte
}

// member steps to the object's next member, reading its key and colon,
// and reports whether there is one. A repeated key marks the walk bad.
func (d *scanner) member(m *members) bool {
	if !d.next('}', &m.n) {
		return false
	}
	m.key = d.str()
	d.expect(':')
	if m.n > len(m.keys) {
		d.bad = true
		return false
	}
	for _, k := range m.keys[:m.n-1] {
		if string(k) == string(m.key) {
			d.bad = true
		}
	}
	m.keys[m.n-1] = m.key
	return !d.bad
}

// next steps to an array's or object's next item, past a comma after
// the first (n counts them), and reports whether there is one.
func (d *scanner) next(close byte, n *int) bool {
	if d.bad || d.eat(close) {
		return false
	}
	if *n > 0 {
		d.expect(',')
	}
	*n++
	return !d.bad
}

// constants are the strings an answer interns: the version, the query
// kinds and the edge kinds. Each starts with a lower-case letter.
var constants = [...]string{Version, "edges", "slice", "taint", "lineage", "path",
	"stats", "verify", "control", "sync", "data"}

// text reads a string value: a constant as that constant, any other
// counted on the counting walk and copied into the arena on the filling.
func (d *scanner) text() string {
	s := d.str()
	for i := 0; i < len(constants) && len(s) > 0 && s[0] >= 'a'; i++ {
		if string(s) == constants[i] {
			return constants[i]
		}
	}
	if !d.fill {
		d.n.bytes += len(s)
		return ""
	}
	start := d.arena.Len()
	d.arena.Write(s)
	return d.arena.String()[start:]
}

// plain marks the bytes a string may hold as they are: printable ASCII
// but the quote and the backslash.
var plain = func() (t [256]bool) {
	for c := 0x20; c <= 0x7e; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// str reads a string of plain bytes and returns them, a view of data.
func (d *scanner) str() []byte {
	if d.expect('"'); d.bad {
		return nil
	}
	start, i := d.i, d.i
	for i < len(d.data) && plain[d.data[i]] {
		i++
	}
	if i == len(d.data) || d.data[i] != '"' {
		d.bad = true
		return nil
	}
	d.i = i + 1
	return d.data[start:i]
}

func (d *scanner) int() int     { return int(d.uint(math.MaxInt)) }
func (d *scanner) page() uint64 { return d.uint(math.MaxUint64) }

// uint reads a non-negative integer no larger than max with no leading
// zero. What follows a sign, fraction or exponent is no delimiter, so
// the walk's next step fails on it.
func (d *scanner) uint(max uint64) (v uint64) {
	d.ws()
	start := d.i
	for ; d.i < len(d.data) && '0' <= d.data[d.i] && d.data[d.i] <= '9'; d.i++ {
		digit := uint64(d.data[d.i] - '0')
		if v > (max-digit)/10 {
			d.bad = true
		}
		v = v*10 + digit
	}
	if n := d.i - start; n == 0 || n > 1 && d.data[start] == '0' {
		d.bad = true
	}
	return v
}

func (d *scanner) boolean() bool {
	d.ws()
	for _, lit := range [...]string{"true", "false"} {
		if len(d.data)-d.i >= len(lit) && string(d.data[d.i:d.i+len(lit)]) == lit {
			d.i += len(lit)
			return lit == "true"
		}
	}
	d.bad = true
	return false
}

// eat skips whitespace and then c, reporting whether c was there.
func (d *scanner) eat(c byte) bool {
	d.ws()
	if d.i < len(d.data) && d.data[d.i] == c {
		d.i++
		return true
	}
	return false
}

func (d *scanner) expect(c byte) {
	if !d.eat(c) {
		d.bad = true
	}
}

func (d *scanner) ws() {
	for ; d.i < len(d.data) && d.data[d.i] <= ' '; d.i++ {
		if c := d.data[d.i]; c != ' ' && c != '\t' && c != '\n' && c != '\r' {
			return
		}
	}
}
