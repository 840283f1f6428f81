"""AES-128 block cipher (FIPS-197), implemented from first principles.

The S-box and its inverse are generated from the GF(2^8) multiplicative
inverse plus the affine transform, rather than hardcoded, so the tables are
correct by construction; the test suite checks the FIPS-197 Appendix B/C
vectors.  This is a clarity-first implementation -- the performance path of
the simulator charges IPsec cost via calibrated cycles/byte, while this
code provides the *functional* encryption used by the ESP layer.
"""

from __future__ import annotations

from ..errors import CryptoError

_NB = 4          # columns in the state
_NK = 4          # 32-bit words in an AES-128 key
_NR = 10         # rounds for AES-128


def _xtime(a: int) -> int:
    """Multiply by x (i.e., {02}) in GF(2^8) mod x^8+x^4+x^3+x+1."""
    a <<= 1
    if a & 0x100:
        a ^= 0x11B
    return a & 0xFF


def _gf_mul(a: int, b: int) -> int:
    """Multiply two elements of GF(2^8)."""
    result = 0
    while b:
        if b & 1:
            result ^= a
        a = _xtime(a)
        b >>= 1
    return result


def _gf_inverses():
    """Multiplicative inverses in GF(2^8), with 0 for 0, from log and
    antilog tables over the generator {03}: the inverse of g^i is
    g^(255-i)."""
    antilog = [0] * 255
    log = [0] * 256
    value = 1
    for power in range(255):
        antilog[power] = value
        log[value] = power
        value ^= _xtime(value)          # value * {03} = value * {02} ^ value
    inverse = [0] * 256
    for value in range(1, 256):
        inverse[value] = antilog[-log[value] % 255]
    return inverse


def _build_sbox():
    inverse = _gf_inverses()
    sbox = [0] * 256
    for value in range(256):
        x = inverse[value]
        # Affine transform: b_i = x_i ^ x_{i+4} ^ x_{i+5} ^ x_{i+6} ^ x_{i+7} ^ c_i
        y = 0
        for bit in range(8):
            t = ((x >> bit) ^ (x >> ((bit + 4) % 8)) ^ (x >> ((bit + 5) % 8))
                 ^ (x >> ((bit + 6) % 8)) ^ (x >> ((bit + 7) % 8))
                 ^ (0x63 >> bit)) & 1
            y |= t << bit
        sbox[value] = y
    inv_sbox = [0] * 256
    for value, substituted in enumerate(sbox):
        inv_sbox[substituted] = value
    return bytes(sbox), bytes(inv_sbox)


SBOX, INV_SBOX = _build_sbox()

_RCON = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36]


class AES128:
    """AES with a 128-bit key; 16-byte blocks."""

    BLOCK_BYTES = 16
    KEY_BYTES = 16

    def __init__(self, key: bytes):
        if len(key) != self.KEY_BYTES:
            raise CryptoError("AES-128 key must be 16 bytes, got %d" % len(key))
        self._round_keys = self._expand_key(key)

    @staticmethod
    def _expand_key(key: bytes):
        words = [list(key[4 * i:4 * i + 4]) for i in range(_NK)]
        for i in range(_NK, _NB * (_NR + 1)):
            temp = list(words[i - 1])
            if i % _NK == 0:
                temp = temp[1:] + temp[:1]                 # RotWord
                temp = [SBOX[b] for b in temp]             # SubWord
                temp[0] ^= _RCON[i // _NK - 1]
            words.append([words[i - _NK][j] ^ temp[j] for j in range(4)])
        # Group into per-round 16-byte keys.
        round_keys = []
        for r in range(_NR + 1):
            rk = []
            for c in range(4):
                rk.extend(words[4 * r + c])
            round_keys.append(rk)
        return round_keys

    # State layout: list of 16 bytes, column-major (s[r + 4c]).

    def _add_round_key(self, state, round_index):
        rk = self._round_keys[round_index]
        for i in range(16):
            state[i] ^= rk[i]

    @staticmethod
    def _sub_bytes(state, box):
        for i in range(16):
            state[i] = box[state[i]]

    @staticmethod
    def _shift_rows(state):
        for r in range(1, 4):
            row = [state[r + 4 * c] for c in range(4)]
            row = row[r:] + row[:r]
            for c in range(4):
                state[r + 4 * c] = row[c]

    @staticmethod
    def _inv_shift_rows(state):
        for r in range(1, 4):
            row = [state[r + 4 * c] for c in range(4)]
            row = row[-r:] + row[:-r]
            for c in range(4):
                state[r + 4 * c] = row[c]

    @staticmethod
    def _mix_columns(state):
        for c in range(4):
            col = state[4 * c:4 * c + 4]
            state[4 * c + 0] = (_gf_mul(col[0], 2) ^ _gf_mul(col[1], 3)
                                ^ col[2] ^ col[3])
            state[4 * c + 1] = (col[0] ^ _gf_mul(col[1], 2)
                                ^ _gf_mul(col[2], 3) ^ col[3])
            state[4 * c + 2] = (col[0] ^ col[1] ^ _gf_mul(col[2], 2)
                                ^ _gf_mul(col[3], 3))
            state[4 * c + 3] = (_gf_mul(col[0], 3) ^ col[1] ^ col[2]
                                ^ _gf_mul(col[3], 2))

    @staticmethod
    def _inv_mix_columns(state):
        for c in range(4):
            col = state[4 * c:4 * c + 4]
            state[4 * c + 0] = (_gf_mul(col[0], 14) ^ _gf_mul(col[1], 11)
                                ^ _gf_mul(col[2], 13) ^ _gf_mul(col[3], 9))
            state[4 * c + 1] = (_gf_mul(col[0], 9) ^ _gf_mul(col[1], 14)
                                ^ _gf_mul(col[2], 11) ^ _gf_mul(col[3], 13))
            state[4 * c + 2] = (_gf_mul(col[0], 13) ^ _gf_mul(col[1], 9)
                                ^ _gf_mul(col[2], 14) ^ _gf_mul(col[3], 11))
            state[4 * c + 3] = (_gf_mul(col[0], 11) ^ _gf_mul(col[1], 13)
                                ^ _gf_mul(col[2], 9) ^ _gf_mul(col[3], 14))

    def encrypt_block(self, block: bytes) -> bytes:
        """Encrypt one 16-byte block."""
        if len(block) != self.BLOCK_BYTES:
            raise CryptoError("AES block must be 16 bytes, got %d" % len(block))
        state = list(block)
        self._add_round_key(state, 0)
        for rnd in range(1, _NR):
            self._sub_bytes(state, SBOX)
            self._shift_rows(state)
            self._mix_columns(state)
            self._add_round_key(state, rnd)
        self._sub_bytes(state, SBOX)
        self._shift_rows(state)
        self._add_round_key(state, _NR)
        return bytes(state)

    def decrypt_block(self, block: bytes) -> bytes:
        """Decrypt one 16-byte block."""
        if len(block) != self.BLOCK_BYTES:
            raise CryptoError("AES block must be 16 bytes, got %d" % len(block))
        state = list(block)
        self._add_round_key(state, _NR)
        for rnd in range(_NR - 1, 0, -1):
            self._inv_shift_rows(state)
            self._sub_bytes(state, INV_SBOX)
            self._add_round_key(state, rnd)
            self._inv_mix_columns(state)
        self._inv_shift_rows(state)
        self._sub_bytes(state, INV_SBOX)
        self._add_round_key(state, 0)
        return bytes(state)
