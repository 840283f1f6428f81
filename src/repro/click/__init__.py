"""A Click-like modular dataplane.

The paper's router software is Click in polling mode (Sec. 4.1); the
RouteBricks changes preserve Click's programming model while adding
multi-queue device elements and batching (Sec. 4.2, 8).  This package
reproduces that model: elements with push ports composed into a router
graph, device elements bound to NIC queues, and a scheduler that
statically assigns tasks to cores and enforces the two RouteBricks rules
(one core per queue, one core per packet).
"""

from .. import _lazy

#: Submodule -> the public names it defines; each loads on first use.
_EXPORTS = {
    "element": ("Element", "PushPort"),
    "graph": ("RouterGraph",),
    "config": ("ElementRegistry", "default_registry", "parse_config"),
    "pipelines": ("PRESET_PIPELINES", "build_pipeline", "pipeline_registry"),
    "scheduler": ("CoreThread", "Scheduler"),
    "simrun": ("TimedForwardingRun", "TimedPipelineRun", "TimedRunReport"),
    "elements.standard": ("Classifier", "CounterElement", "Discard",
                          "PacketQueue", "Tee"),
    "elements.device": ("PollDevice", "ToDevice"),
    "elements.ip": ("CheckIPHeader", "DecIPTTL", "EtherEncap",
                    "LookupIPRoute"),
    "elements.ipsec": ("IPsecESPEncap",),
    "elements.loadbalance": ("FlowHashSwitch", "RoundRobinSwitch"),
}

__getattr__, __dir__, __all__ = _lazy.attach(__name__, _EXPORTS)
