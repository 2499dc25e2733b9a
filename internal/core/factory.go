package core

import "fmt"

// viewKey identifies one point in the layout space the factory routes
// over: physical architecture × maintenance strategy.
type viewKey struct {
	arch     Arch
	strategy Strategy
}

// builder constructs a view for one supported layout combination.
type builder func(dir string, poolPages int, entities []Entity, opts Options) (View, error)

// layouts is the capability table: every (architecture, strategy)
// combination the engine supports, mapped to its constructor. A
// combination absent from the table is unsupported and New explains
// why instead of guessing — the structural hole is the hybrid
// architecture without the Hazy strategy (its ε-map and boundary
// buffer are summaries of the eps clustering). The Hazy strategy has
// one implementation, StripedView, over one StripeStore per
// architecture: an unstriped view is one stripe. The naive strategy
// is the from-scratch baseline, MemView or DiskView.
var layouts = map[viewKey]builder{
	{MainMemory, HazyStrategy}: func(_ string, _ int, entities []Entity, opts Options) (View, error) {
		return NewStriped(entities, max(1, opts.Partitions), opts)
	},
	{MainMemory, Naive}: func(_ string, _ int, entities []Entity, opts Options) (View, error) {
		return NewMemView(entities, opts), nil
	},
	{OnDisk, HazyStrategy}: func(dir string, poolPages int, entities []Entity, opts Options) (View, error) {
		return NewStripedDisk(dir, poolPages, entities, max(1, opts.Partitions), opts)
	},
	{OnDisk, Naive}: func(dir string, poolPages int, entities []Entity, opts Options) (View, error) {
		return NewDiskView(dir, poolPages, entities, opts)
	},
	{HybridArch, HazyStrategy}: func(dir string, poolPages int, entities []Entity, opts Options) (View, error) {
		return NewStripedHybrid(dir, poolPages, entities, max(1, opts.Partitions), opts)
	},
}

// New constructs a view of the requested architecture and strategy
// from the capability table. dir is used only by the on-disk and
// hybrid architectures (their page files live under it, one
// subdirectory per stripe for the Hazy strategy); poolPages sizes
// their buffer pool (split across stripes). opts.Partitions stripes a
// Hazy view of any architecture (0 and 1 both mean one stripe).
func New(arch Arch, strategy Strategy, dir string, poolPages int, entities []Entity, opts Options) (View, error) {
	if opts.Partitions > 1 && strategy != HazyStrategy {
		return nil, fmt.Errorf("core: striping (PARTITIONS %d) requires the Hazy strategy: the %s strategy keeps no eps clustering for the stripes to maintain", opts.Partitions, strategy)
	}
	if build, ok := layouts[viewKey{arch: arch, strategy: strategy}]; ok {
		return build(dir, poolPages, entities, opts)
	}
	if arch == HybridArch && strategy != HazyStrategy {
		return nil, fmt.Errorf("core: the hybrid architecture requires the Hazy strategy (its ε-map and boundary buffer summarize the eps clustering)")
	}
	return nil, fmt.Errorf("core: unsupported layout: architecture %s, strategy %s, partitions %d", arch, strategy, opts.Partitions)
}
