"""Model-driven container autoscaling for latency-sensitive functions.

Core pieces: pool sizing on one occupancy-chain queueing model, which takes
pools as container rates and whose equal-rate case is the M/M/c pool
(`queuing`), workload generation and arrival-rate estimation (`workload`),
weighted fair shares under overload (`fairshare`), CPU-deflation/termination
reclamation (`reclamation`), the per-epoch control loop (`allocator`), a
deterministic cluster simulator (`simulator`), and a Monte-Carlo validation
oracle (`oracle`). The `cli` module ties them together for scenario runs.

The package re-exports nothing: import each submodule by name
(`from edgescale import queuing`), so an entry point loads only what it runs.
"""

__version__ = "0.1.0"
