package main

// workload is one traffic mix over one database shape.
type workload struct {
	name string // BENCHMARK.json records why each was chosen

	// Database shape.
	entities   int
	arch       string // ARCHITECTURE clause: MM | OD
	partitions int    // PARTITIONS clause when > 1
	engine     bool   // ATTACH ENGINE after reopen; false: unmanaged, statements serialize on the DB's statement mutex

	// Reads: always closed-loop, ids 1..entities.
	readMix  []weight
	hotTheta float64 // 0: uniform ids; else Zipf(theta) over a seeded permutation

	// Writes: one connection. Synchronous SQL INSERTs acked when
	// visible, or async TRAINA/ADDA with a FLUSH every flushEvery.
	async    bool
	addEvery int // every addEvery-th write inserts a new entity; the rest are examples on loaded ones

	// concurrent: one writing connection beside one reading connection
	// for the whole of --seconds. Otherwise each class runs alone: reads
	// on two connections for readShare of --seconds, then writes on one
	// connection for the rest.
	concurrent bool
	readShare  float64
}

// warm is how many examples precede CREATE VIEW.
func (w *workload) warm() int { return min(warmCount, w.entities/4) }

var mmReadMix = []weight{{opLabel, 35}, {opPoint, 35}, {opCount, 10}, {opRange, 10}, {opNearest, 10}}

// Three workloads, not the issue's four, and 200k entities, not 500k;
// README.md ("What changed from the issue") gives the measurements
// behind both. In short: the driver wants every end-to-end metric from
// every workload, so a read-only and a write-only workload on one
// database shape differ only in how they split --seconds, and merged
// each phase runs long enough to repeat; and 4 + 22 × 3 runs with three
// set-ups each must fit 3420 s on two cores.
var workloads = []*workload{
	{
		name:     "solo.mm200k",
		entities: 200_000, arch: "MM", engine: true,
		readMix: mmReadMix, addEvery: 5, readShare: 0.25,
	},
	{
		name:     "mixed.mm200k.p4",
		entities: 200_000, arch: "MM", partitions: 4, engine: true,
		readMix: mmReadMix, async: true, addEvery: 10, concurrent: true,
	},
	{
		name:     "solo.od200k",
		entities: 200_000, arch: "OD",
		readMix:  []weight{{opLabel, 45}, {opPoint, 45}, {opRange, 10}},
		hotTheta: 1.07, addEvery: 10, readShare: 0.15,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}
