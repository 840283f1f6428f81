"""The IPsec application element: ESP-encrypt every packet (Sec. 5.1)."""

from __future__ import annotations

from ...costs import increment_terms
from ...crypto.esp import EspContext, esp_encapsulate
from ...errors import CryptoError
from ...net.packet import Packet
from ..element import Element


class IPsecESPEncap(Element):
    """AES-128 ESP tunnel encapsulation.

    ``functional`` selects real encryption of the packet bytes (slow,
    exercised in tests and examples); otherwise only the size/annotation
    effects are applied and the cost model charges the calibrated
    cycles/byte -- what the throughput experiments use.
    """

    def __init__(self, context: EspContext, functional: bool = False,
                 name: str = ""):
        super().__init__(name)
        self.context = context
        self.functional = functional
        self.failed = 0
        # AES cost: the ipsec increment over minimal forwarding --
        # calibrated cycles/byte plus the fixed ESP overhead.
        self.set_cost_terms(*increment_terms("ipsec"))

    def process(self, packet: Packet, port: int) -> None:
        if packet.ip is None:
            self.failed += 1
            self.drop(packet)
            return
        if self.functional:
            try:
                outer = esp_encapsulate(self.context, packet)
            except CryptoError:
                self.failed += 1
                self.drop(packet)
                return
        else:
            outer = packet
            # ESP framing grows the packet: 20 B outer IP + 8 B ESP header
            # + 16 B IV + padding to the AES block.
            grown = packet.length + 44
            outer.length = grown + (-grown % 16)
            outer.annotations["esp_seq"] = self.context.next_seq()
        self.push(outer)
