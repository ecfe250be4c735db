"""Model-driven container autoscaling for latency-sensitive functions.

Core pieces: pool sizing on one occupancy-chain queueing model, which takes
pools as container rates and whose equal-rate case is the M/M/c pool
(`queuing`), workload generation and arrival-rate estimation (`workload`),
weighted fair shares under overload (`fairshare`), CPU-deflation/termination
reclamation (`reclamation`), the per-epoch control loop (`allocator`), a
deterministic cluster simulator (`simulator`), and a Monte-Carlo validation
oracle (`oracle`). The `cli` module ties them together for scenario runs.
"""

__version__ = "0.1.0"

from .allocator import ControllerConfig, FunctionSpec, SloPolicy  # noqa: F401
from .cluster import ClusterState, Node  # noqa: F401
from .queuing import WaitTarget, find_c_heterogeneous, find_c_homogeneous  # noqa: F401
from .reclamation import ContainerState, ServiceProfile  # noqa: F401
from .workload import RateEstimator, WorkloadSpec  # noqa: F401
