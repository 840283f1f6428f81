"""Single-server performance model.

Implements the paper's evaluation methodology (Sec. 5): per-packet load
vectors charged against component capacity bounds, a max-loss-free-rate
solver that identifies the bottleneck component, the batching model of
Table 1, the Fig. 6 core/queue-assignment scenarios, and the Sec. 5.3
scaling projections.
"""

from ..costs import ServerConfig
from .bounds import ComponentBounds, bounds_for
from .batching import batching_rate_bps, batching_sweep
from .throughput import RateResult, max_loss_free_rate, rate_from_loads
from .scenarios import SCENARIOS, Scenario, scenario_rate_gbps
from .projection import project_rates, projected_abilene_forwarding_bps
from .custom_app import define_application, predict
from .queueing import loaded_cluster_latency_usec, md1_wait_sec

__all__ = [
    "ServerConfig",
    "ComponentBounds",
    "bounds_for",
    "batching_rate_bps",
    "batching_sweep",
    "RateResult",
    "max_loss_free_rate",
    "rate_from_loads",
    "SCENARIOS",
    "Scenario",
    "scenario_rate_gbps",
    "project_rates",
    "projected_abilene_forwarding_bps",
    "define_application",
    "predict",
    "loaded_cluster_latency_usec",
    "md1_wait_sec",
]
