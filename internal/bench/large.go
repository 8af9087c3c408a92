package bench

import "manetskyline/internal/manet"

// LargeConfig is manet.ScaleConfig. It exists only for benchmark/sim.go,
// until the next change to the benchmark calls manet.ScaleParams itself.
type LargeConfig = manet.ScaleConfig

// ScenarioLarge is manet.ScaleParams. It exists only for benchmark/sim.go,
// until the next change to the benchmark calls manet.ScaleParams itself.
func ScenarioLarge(cfg LargeConfig) manet.Params { return manet.ScaleParams(cfg) }
