package pctt

import "flag"

// RegisterFlags registers the engine's tuning knobs on fs, writing parsed
// values straight into c. The flag names, defaults, and help text live
// here once; both dcart-kv and the store flag helper register through this
// method instead of hand-copying the -batch-* set per binary. Zero values
// keep the engine defaults (Config.Defaults).
func (c *Config) RegisterFlags(fs *flag.FlagSet) {
	fs.IntVar(&c.Workers, "batch-workers", 0,
		"route point ops through the parallel CTT engine with n workers (0 = direct)")
	fs.IntVar(&c.QueueDepth, "batch-queue-depth", 0,
		"per-bucket backlog bound in operations (0 = engine default 4096)")
	fs.IntVar(&c.MaxInflight, "batch-max-inflight", 0,
		"total submitted-but-incomplete operation bound — the queue-wait knob (0 = engine default 4x batch size)")
	fs.BoolVar(&c.NoSteal, "batch-no-steal", false,
		"disable whole-bucket work stealing and handoff (pin buckets to their home worker)")
	fs.IntVar(&c.HotsetCap, "batch-hotset", 0,
		"per-worker hot-node residency anchors for batch descents (0 = engine default 64, negative disables)")
}
