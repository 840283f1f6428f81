"""Cryptographic substrate for the IPsec application.

The paper's third workload encrypts every packet with AES-128 "as is
typical in VPNs" (Sec. 5.1).  This package implements AES-128 from scratch
(verified against FIPS-197 vectors in the test suite), CBC mode,
and IPsec ESP tunnel-mode encapsulation with sequence numbers.
"""

from .aes import AES128
from .modes import cbc_encrypt, cbc_decrypt
from .esp import EspContext, esp_encapsulate, esp_decapsulate

__all__ = [
    "AES128",
    "cbc_encrypt",
    "cbc_decrypt",
    "EspContext",
    "esp_encapsulate",
    "esp_decapsulate",
]
