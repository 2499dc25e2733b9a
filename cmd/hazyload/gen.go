package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Everything the program under test sees is generated here, from the
// seed alone: the corpus (a title is a pure function of seed and id,
// so a check can ask for "that entity's own title" without the
// benchmark holding half a million strings in the process it also
// measures the memory of), the warm examples, the id distributions,
// and each connection's statement stream.

// rng is splitmix64: tiny, seedable per id, and its stream does not
// depend on the Go release the way math/rand's top-level source may.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// fork derives an independent generator for a named purpose, so adding
// a draw to one stream never shifts another.
func fork(seed uint64, purpose uint64) rng {
	r := rng{s: seed ^ (purpose+1)*0xd6e8feb86659fd93}
	r.next()
	return r
}

// zipf is a cumulative table over ranks 0..n-1 with P(rank k) ∝
// 1/(k+1)^theta.
type zipf []float64

func newZipf(n int, theta float64) zipf {
	z := make(zipf, n)
	sum := 0.0
	for k := range z {
		sum += 1 / math.Pow(float64(k+1), theta)
		z[k] = sum
	}
	for k := range z {
		z[k] /= sum
	}
	return z
}

func (z zipf) draw(r *rng) int {
	k := sort.SearchFloat64s(z, r.float())
	if k >= len(z) {
		k = len(z) - 1
	}
	return k
}

// perm is a seeded bijection on 0..n-1 (affine, multiplier coprime to
// n): position → id without an n-sized table. Training ids walk it
// without replacement — the examples table is keyed by entity id, so
// a repeated id would be refused — and Zipf reads map rank → id
// through it so the hot ids are scattered over the key space.
type perm struct{ a, b, n uint64 }

func newPerm(n int, r *rng) perm {
	p := perm{n: uint64(n), b: r.next() % uint64(n)}
	for p.a = r.next()%uint64(n) | 1; gcd(p.a, p.n) != 1; p.a += 2 {
	}
	return p
}

func gcd(a, b uint64) uint64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// id maps position i (any non-negative value; it wraps) to an entity
// id in 1..n.
func (p perm) id(i int) int64 { return int64((p.a*(uint64(i)%p.n)+p.b)%p.n) + 1 }

// Corpus shape (DBLife-like, the paper's Fig 3: ~7 non-zeros per
// entity): 5,000 tokens, half shared between the topics and a quarter
// owned by each, Zipf-ranked inside each group; 6–10 tokens a title.
const (
	vocabSize   = 5000
	sharedToks  = vocabSize / 2
	topicToks   = vocabSize / 4
	vocabTheta  = 1.0
	labelNoise  = 0.05  // share of training labels flipped
	crossTopic  = 0.05  // share of topical tokens drawn from the other topic
	warmCount   = 20000 // examples inserted before CREATE VIEW (paper §4.1: warm model); see README for why not 2,000
	checkSample = 1000  // ids in the LABEL = CLASSIFY check
)

type corpus struct {
	seed          uint64
	shared, topic zipf
}

func newCorpus(seed uint64) *corpus {
	return &corpus{seed: seed, shared: newZipf(sharedToks, vocabTheta), topic: newZipf(topicToks, vocabTheta)}
}

// topic is the entity's hidden class, ±1.
func (c *corpus) topicOf(id int64) int {
	r := fork(c.seed, uint64(id)<<8|1)
	if r.next()&1 == 0 {
		return 1
	}
	return -1
}

// title renders entity id's text.
func (c *corpus) title(id int64) string {
	t := c.topicOf(id)
	r := fork(c.seed, uint64(id)<<8|2)
	var b strings.Builder
	for k, n := 0, 6+r.intn(5); k < n; k++ {
		if k > 0 {
			b.WriteByte(' ')
		}
		tok := c.shared.draw(&r)
		if r.float() >= 0.5 {
			own := t
			if r.float() < crossTopic {
				own = -t
			}
			tok = sharedToks + c.topic.draw(&r)
			if own < 0 {
				tok += topicToks
			}
		}
		fmt.Fprintf(&b, "t%04d", tok)
	}
	return b.String()
}

// label is the training label a user would give id: the topic, wrong
// labelNoise of the time.
func (c *corpus) label(id int64) int {
	r := fork(c.seed, uint64(id)<<8|3)
	if r.float() < labelNoise {
		return -c.topicOf(id)
	}
	return c.topicOf(id)
}

// Statement classes. The class names are the per-class rows of the
// report.
const (
	opLabel   = "label"   // LABEL id (verb)
	opPoint   = "point"   // SQL SELECT class ... WHERE id = k
	opCount   = "count"   // SQL SELECT COUNT(*) ... WHERE class = 1
	opRange   = "range"   // SQL eps range LIMIT 100
	opNearest = "nearest" // SQL ORDER BY ABS(eps) LIMIT 10
	opTrain   = "train"   // example on an existing entity
	opAdd     = "add"     // new entity
	opFlush   = "flush"   // FLUSH barrier after a run of async writes
)

// stmt is one generated protocol line with its class. Statements that
// address one entity also carry it in structured form, so the traced
// run can make the same call below the parser.
type stmt struct {
	class string
	line  string
	id    int64
	label int    // train
	text  string // add
}

// weight is one class's share of a mix, in percent.
type weight struct {
	class string
	pct   int
}

const viewName = "v"

// reader generates one read connection's statements.
type reader struct {
	r    rng
	mix  []weight
	n    int  // loaded entities; reads address ids 1..n only
	hot  zipf // nil: uniform ids
	perm perm // rank → id for Zipf reads
}

func newReader(seed uint64, conn int, mix []weight, n int, hot zipf) *reader {
	rd := &reader{r: fork(seed, 0x100+uint64(conn)), mix: mix, n: n, hot: hot}
	pr := fork(seed, 0x1ff)
	rd.perm = newPerm(n, &pr)
	return rd
}

func (rd *reader) id() int64 {
	if rd.hot != nil {
		return rd.perm.id(rd.hot.draw(&rd.r))
	}
	return int64(rd.r.intn(rd.n)) + 1
}

func (rd *reader) next() stmt {
	class := pick(&rd.r, rd.mix)
	switch class {
	case opLabel:
		id := rd.id()
		return stmt{class: class, line: fmt.Sprintf("LABEL %d", id), id: id}
	case opPoint:
		return stmt{class: class, line: fmt.Sprintf("SQL SELECT class FROM %s WHERE id = %d", viewName, rd.id())}
	case opCount:
		return stmt{class: class, line: "SQL SELECT COUNT(*) FROM " + viewName + " WHERE class = 1"}
	case opRange:
		// 41 distinct windows of width 0.02 around the boundary, where
		// an active-learning client looks.
		lo := -0.21 + 0.01*float64(rd.r.intn(41))
		return stmt{class: class, line: fmt.Sprintf("SQL SELECT id FROM %s WHERE eps >= %.2f AND eps <= %.2f LIMIT 100", viewName, lo, lo+0.02)}
	case opNearest:
		return stmt{class: class, line: "SQL SELECT id FROM " + viewName + " ORDER BY ABS(eps) LIMIT 10"}
	}
	panic("hazyload: read mix names unknown class " + class)
}

func pick(r *rng, mix []weight) string {
	x := r.intn(100)
	for _, w := range mix {
		if x < w.pct {
			return w.class
		}
		x -= w.pct
	}
	panic("hazyload: mix does not sum to 100")
}

// writer generates the write statements of one run. There is one per
// run, shared by every phase that writes, so training ids are never
// reused and new entity ids never collide however the phases divide
// the work.
type writer struct {
	c          *corpus
	train      perm // walk of loaded ids; positions below warm are the warm examples
	trainPos   int
	n          int
	nextID     int64 // next new entity id (loaded ids are 1..n)
	addEvery   int   // every addEvery-th write is a new entity
	async      bool  // TRAINA/ADDA verbs with a FLUSH per flushEvery, else SQL INSERT
	sinceFlush int
	count      int
}

const flushEvery = 256

func newWriter(c *corpus, seed uint64, n, warm, addEvery int, async bool) *writer {
	pr := fork(seed, 0x2ff)
	return &writer{c: c, train: newPerm(n, &pr), trainPos: warm, n: n, nextID: int64(n) + 1, addEvery: addEvery, async: async}
}

// warm returns the i-th warm example's entity id.
func (w *writer) warm(i int) int64 { return w.train.id(i) }

// added is how many new entities the stream has inserted so far.
func (w *writer) added() int { return int(w.nextID) - w.n - 1 }

func (w *writer) next() stmt {
	if w.async && w.sinceFlush == flushEvery {
		w.sinceFlush = 0
		return stmt{class: opFlush, line: "FLUSH"}
	}
	w.sinceFlush++
	w.count++
	// Once every loaded entity carries an example a further one would
	// be refused as a duplicate key; the stream degrades to inserts
	// rather than to failures. No shipped workload gets there.
	if w.count%w.addEvery == 0 || w.trainPos >= w.n {
		s := stmt{class: opAdd, id: w.nextID, text: w.c.title(w.nextID)}
		w.nextID++
		if w.async {
			s.line = fmt.Sprintf("ADDA %d %s", s.id, s.text)
		} else {
			s.line = fmt.Sprintf("SQL INSERT INTO papers VALUES (%d, '%s')", s.id, s.text)
		}
		return s
	}
	id := w.train.id(w.trainPos)
	w.trainPos++
	s := stmt{class: opTrain, id: id, label: w.c.label(id)}
	if w.async {
		s.line = fmt.Sprintf("TRAINA %d %+d", id, s.label)
	} else {
		s.line = fmt.Sprintf("SQL INSERT INTO feedback VALUES (%d, %d)", id, s.label)
	}
	return s
}
