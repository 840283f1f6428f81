"""A single workload description accepted by every throughput API.

Historically each entry point took its own mix of positional arguments:
``max_loss_free_rate(app, packet_bytes)``,
``RouteBricksRouter.max_throughput(packet_bytes, ingress_app=...)``,
``simulate(events)``.  A :class:`WorkloadSpec` bundles the three things a
workload actually is -- a packet-size distribution, the application run on
ingress, and (for cluster runs) a traffic matrix -- and is accepted
uniformly by:

* :meth:`repro.core.RouteBricksRouter.max_throughput`
* :meth:`repro.core.RouteBricksRouter.simulate`
* :func:`repro.perfmodel.max_loss_free_rate`

The old positional signatures were removed: those entry points raise
``TypeError`` naming the ``WorkloadSpec`` constructor to use instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator, Optional, Tuple

from .. import calibration as cal
from ..errors import ConfigurationError
from ..net.packet import Packet
from .abilene import ABILENE_SIZE_MIX
from .cluster_traffic import matrix_events
from .imix import MIXES, mix_mean_bytes
from .matrices import TrafficMatrix

#: A packet-size distribution: (frame bytes, weight) pairs.
SizeMix = Tuple[Tuple[int, float], ...]


def _normalize_mix(mix) -> SizeMix:
    if isinstance(mix, str):
        if mix not in MIXES:
            raise ConfigurationError("unknown mix %r (have %s)"
                                     % (mix, sorted(MIXES)))
        mix = MIXES[mix]
    mix = tuple((float(size), float(weight)) for size, weight in mix)
    # Written so that NaN fails too (every comparison with NaN is false).
    if not mix or not all(64 <= size < math.inf and 0 <= weight < math.inf
                          for size, weight in mix):
        raise ConfigurationError("mix entries need finite size >= 64 and "
                                 "finite weight >= 0")
    if sum(weight for _, weight in mix) <= 0:
        raise ConfigurationError("mix weights must sum to > 0")
    return mix


@dataclass(frozen=True)
class WorkloadSpec:
    """A named workload: packet sizes + application + optional matrix.

    ``mix`` is a (size, weight) distribution; fixed-size workloads are a
    one-entry mix.  ``matrix`` (demands in bits/second) is required only
    for packet-level cluster simulation, where :meth:`events` realizes it
    as merged Poisson streams.
    """

    name: str
    mix: SizeMix
    app: cal.AppCost = field(default_factory=lambda: cal.IP_ROUTING)
    matrix: Optional[TrafficMatrix] = None
    flows_per_pair: int = 4
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "mix", _normalize_mix(self.mix))
        object.__setattr__(self, "app", cal.resolve_app(self.app))
        if self.flows_per_pair < 1:
            raise ConfigurationError("need >= 1 flow per pair")

    # -- constructors --------------------------------------------------------

    @classmethod
    def fixed(cls, packet_bytes: float, app="routing",
              matrix: Optional[TrafficMatrix] = None,
              **kwargs) -> "WorkloadSpec":
        """Every packet the same size (the paper's 64 B..1024 B points)."""
        return cls(name="fixed-%gB" % packet_bytes,
                   mix=((packet_bytes, 1.0),), app=app, matrix=matrix,
                   **kwargs)

    @classmethod
    def imix(cls, mix="simple", app="routing",
             matrix: Optional[TrafficMatrix] = None,
             **kwargs) -> "WorkloadSpec":
        """A named IMIX from :data:`repro.workloads.imix.MIXES`."""
        label = mix if isinstance(mix, str) else "custom"
        return cls(name="imix-%s" % label, mix=_normalize_mix(mix),
                   app=app, matrix=matrix, **kwargs)

    @classmethod
    def abilene(cls, app="routing", matrix: Optional[TrafficMatrix] = None,
                **kwargs) -> "WorkloadSpec":
        """The Abilene-like trimodal size mixture (mean 740 B)."""
        return cls(name="abilene", mix=tuple(ABILENE_SIZE_MIX), app=app,
                   matrix=matrix, **kwargs)

    # -- derived quantities --------------------------------------------------

    @property
    def mean_packet_bytes(self) -> float:
        return mix_mean_bytes(list(self.mix))

    def with_matrix(self, matrix: TrafficMatrix) -> "WorkloadSpec":
        """The same workload bound to a cluster traffic matrix."""
        return WorkloadSpec(name=self.name, mix=self.mix, app=self.app,
                            matrix=matrix,
                            flows_per_pair=self.flows_per_pair,
                            seed=self.seed)

    def events(self, duration_sec: float, owned=None,
               id_base: Optional[int] = None) \
            -> Iterator[Tuple[float, int, int, Optional[Packet]]]:
        """Realize the workload as timed cluster events.

        Requires ``matrix``; demands become merged Poisson packet streams
        with sizes drawn from the mix (see
        :func:`repro.workloads.cluster_traffic.matrix_events`, also for
        the internal ``owned`` / ``id_base`` a cluster partition passes
        to replay the stream for its own ingress nodes).
        """
        if self.matrix is None:
            raise ConfigurationError(
                "workload %r has no traffic matrix; use with_matrix() "
                "before simulating" % self.name)
        return matrix_events(self.matrix, duration_sec,
                             size_mix=self.mix,
                             flows_per_pair=self.flows_per_pair,
                             seed=self.seed, owned=owned, id_base=id_base)
