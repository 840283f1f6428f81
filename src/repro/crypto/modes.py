"""Block-cipher mode of operation: CBC with PKCS#7 padding (what ESP uses)."""

from __future__ import annotations

from ..errors import CryptoError
from .aes import AES128

_BLOCK = AES128.BLOCK_BYTES


def pkcs7_pad(data: bytes, block_bytes: int = _BLOCK) -> bytes:
    """Append PKCS#7 padding up to a whole number of blocks."""
    pad_len = block_bytes - (len(data) % block_bytes)
    return data + bytes([pad_len]) * pad_len


def pkcs7_unpad(data: bytes, block_bytes: int = _BLOCK) -> bytes:
    """Strip and validate PKCS#7 padding."""
    if not data or len(data) % block_bytes:
        raise CryptoError("padded data length %d is not block-aligned" % len(data))
    pad_len = data[-1]
    if not 1 <= pad_len <= block_bytes:
        raise CryptoError("invalid PKCS#7 pad byte %d" % pad_len)
    if data[-pad_len:] != bytes([pad_len]) * pad_len:
        raise CryptoError("corrupt PKCS#7 padding")
    return data[:-pad_len]


def _xor_bytes(a: bytes, b: bytes) -> bytes:
    return bytes(x ^ y for x, y in zip(a, b))


def cbc_encrypt(cipher: AES128, iv: bytes, plaintext: bytes) -> bytes:
    """CBC-encrypt ``plaintext`` (PKCS#7-padded) under ``iv``."""
    if len(iv) != _BLOCK:
        raise CryptoError("IV must be %d bytes, got %d" % (_BLOCK, len(iv)))
    padded = pkcs7_pad(plaintext)
    out = []
    previous = iv
    for i in range(0, len(padded), _BLOCK):
        block = _xor_bytes(padded[i:i + _BLOCK], previous)
        previous = cipher.encrypt_block(block)
        out.append(previous)
    return b"".join(out)


def cbc_decrypt(cipher: AES128, iv: bytes, ciphertext: bytes) -> bytes:
    """CBC-decrypt and strip PKCS#7 padding."""
    if len(iv) != _BLOCK:
        raise CryptoError("IV must be %d bytes, got %d" % (_BLOCK, len(iv)))
    if len(ciphertext) % _BLOCK:
        raise CryptoError("ciphertext length %d not block-aligned" % len(ciphertext))
    out = []
    previous = iv
    for i in range(0, len(ciphertext), _BLOCK):
        block = ciphertext[i:i + _BLOCK]
        out.append(_xor_bytes(cipher.decrypt_block(block), previous))
        previous = block
    return pkcs7_unpad(b"".join(out))
