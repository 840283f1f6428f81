"""Tests for AES-128, block modes, and ESP encapsulation."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto import (
    AES128,
    EspContext,
    cbc_decrypt,
    cbc_encrypt,
    esp_decapsulate,
    esp_encapsulate,
)
from repro.crypto.aes import INV_SBOX, SBOX, _gf_inverses, _gf_mul
from repro.crypto.modes import pkcs7_pad, pkcs7_unpad
from repro.errors import CryptoError
from repro.net import IPv4Address, Packet


class TestAES128:
    def test_fips197_appendix_b(self):
        # FIPS-197 Appendix B: the canonical AES-128 example vector.
        key = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
        plaintext = bytes.fromhex("3243f6a8885a308d313198a2e0370734")
        expected = bytes.fromhex("3925841d02dc09fbdc118597196a0b32")
        assert AES128(key).encrypt_block(plaintext) == expected

    def test_fips197_appendix_c(self):
        # FIPS-197 Appendix C.1 example vector.
        key = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
        plaintext = bytes.fromhex("00112233445566778899aabbccddeeff")
        expected = bytes.fromhex("69c4e0d86a7b0430d8cdb78070b4c55a")
        cipher = AES128(key)
        assert cipher.encrypt_block(plaintext) == expected
        assert cipher.decrypt_block(expected) == plaintext

    def test_sbox_is_a_permutation(self):
        assert sorted(SBOX) == list(range(256))
        assert all(INV_SBOX[SBOX[i]] == i for i in range(256))

    def test_inverses_are_the_exhaustive_definition(self):
        # b is a's inverse when a * b == 1 in GF(2^8); 0 maps to 0.
        expected = [0] * 256
        for a in range(1, 256):
            expected[a] = next(b for b in range(1, 256) if _gf_mul(a, b) == 1)
        assert _gf_inverses() == expected

    def test_sbox_known_entries(self):
        # Spot-check canonical S-box values.
        assert SBOX[0x00] == 0x63
        assert SBOX[0x01] == 0x7C
        assert SBOX[0x53] == 0xED
        assert SBOX[0xFF] == 0x16

    def test_bad_key_length(self):
        with pytest.raises(CryptoError):
            AES128(b"short")

    def test_bad_block_length(self):
        cipher = AES128(b"\x00" * 16)
        with pytest.raises(CryptoError):
            cipher.encrypt_block(b"\x00" * 15)
        with pytest.raises(CryptoError):
            cipher.decrypt_block(b"\x00" * 17)

    @settings(max_examples=20, deadline=None)
    @given(key=st.binary(min_size=16, max_size=16),
           block=st.binary(min_size=16, max_size=16))
    def test_decrypt_inverts_encrypt(self, key, block):
        cipher = AES128(key)
        assert cipher.decrypt_block(cipher.encrypt_block(block)) == block


class TestModes:
    def test_pkcs7_round_trip(self):
        for n in range(0, 33):
            data = bytes(range(n % 256))[:n]
            assert pkcs7_unpad(pkcs7_pad(data)) == data

    def test_pkcs7_rejects_corrupt(self):
        with pytest.raises(CryptoError):
            pkcs7_unpad(b"\x00" * 15 + b"\x03")
        with pytest.raises(CryptoError):
            pkcs7_unpad(b"")
        with pytest.raises(CryptoError):
            pkcs7_unpad(b"\x00" * 15 + b"\x11")  # pad byte > block

    def test_nist_sp800_38a_cbc_vector(self):
        # NIST SP 800-38A, F.2.1 (CBC-AES128.Encrypt), first block.
        key = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
        iv = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
        plaintext = bytes.fromhex("6bc1bee22e409f96e93d7e117393172a")
        expected = bytes.fromhex("7649abac8119b246cee98e9b12e9197d")
        ciphertext = cbc_encrypt(AES128(key), iv, plaintext)
        # Our CBC pads with PKCS#7; the first block must match the vector.
        assert ciphertext[:16] == expected

    def test_nist_sp800_38a_cbc_chaining(self):
        # F.2.1 continued: second block chains off the first ciphertext.
        key = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
        iv = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
        plaintext = bytes.fromhex(
            "6bc1bee22e409f96e93d7e117393172a"
            "ae2d8a571e03ac9c9eb76fac45af8e51")
        expected = bytes.fromhex(
            "7649abac8119b246cee98e9b12e9197d"
            "5086cb9b507219ee95db113a917678b2")
        ciphertext = cbc_encrypt(AES128(key), iv, plaintext)
        assert ciphertext[:32] == expected

    @settings(max_examples=15, deadline=None)
    @given(key=st.binary(min_size=16, max_size=16),
           iv=st.binary(min_size=16, max_size=16),
           plaintext=st.binary(min_size=0, max_size=100))
    def test_cbc_round_trip(self, key, iv, plaintext):
        cipher = AES128(key)
        ciphertext = cbc_encrypt(cipher, iv, plaintext)
        assert len(ciphertext) % 16 == 0
        assert cbc_decrypt(cipher, iv, ciphertext) == plaintext

    def test_cbc_bad_iv(self):
        cipher = AES128(b"\x00" * 16)
        with pytest.raises(CryptoError):
            cbc_encrypt(cipher, b"\x00" * 8, b"data")
        with pytest.raises(CryptoError):
            cbc_decrypt(cipher, b"\x00" * 8, b"\x00" * 16)

    def test_cbc_unaligned_ciphertext(self):
        cipher = AES128(b"\x00" * 16)
        with pytest.raises(CryptoError):
            cbc_decrypt(cipher, b"\x00" * 16, b"\x00" * 17)


def _context(spi=7):
    return EspContext(spi=spi, key=b"\x02" * 16,
                      tunnel_src=IPv4Address("172.16.0.1"),
                      tunnel_dst=IPv4Address("172.16.0.2"))


class TestESP:
    def test_encapsulate_decapsulate_round_trip(self):
        ctx_out = _context()
        ctx_in = _context()
        packet = Packet.udp("10.0.0.1", "10.0.0.2", length=128,
                            src_port=4500, dst_port=80)
        outer = esp_encapsulate(ctx_out, packet)
        assert outer.ip.proto == 50
        assert outer.ip.src == IPv4Address("172.16.0.1")
        inner = esp_decapsulate(ctx_in, outer)
        assert inner.ip.src == packet.ip.src
        assert inner.ip.dst == packet.ip.dst
        assert inner.l4.src_port == 4500

    def test_sequence_numbers_increment(self):
        ctx = _context()
        packet = Packet.udp("1.1.1.1", "2.2.2.2", length=64)
        first = esp_encapsulate(ctx, packet)
        second = esp_encapsulate(ctx, packet)
        assert first.annotations["esp_seq"] == 1
        assert second.annotations["esp_seq"] == 2

    def test_outer_packet_is_larger(self):
        ctx = _context()
        packet = Packet.udp("1.1.1.1", "2.2.2.2", length=64)
        outer = esp_encapsulate(ctx, packet)
        assert outer.length > packet.length

    def test_spi_mismatch_rejected(self):
        outer = esp_encapsulate(_context(spi=7),
                                Packet.udp("1.1.1.1", "2.2.2.2", length=64))
        with pytest.raises(CryptoError):
            esp_decapsulate(_context(spi=8), outer)

    def test_non_esp_packet_rejected(self):
        with pytest.raises(CryptoError):
            esp_decapsulate(_context(), Packet.udp("1.1.1.1", "2.2.2.2"))

    def test_non_ip_packet_rejected(self):
        with pytest.raises(CryptoError):
            esp_encapsulate(_context(), Packet(length=64))

    def test_truncated_payload_rejected(self):
        ctx = _context()
        outer = esp_encapsulate(ctx, Packet.udp("1.1.1.1", "2.2.2.2"))
        outer.payload = outer.payload[:10]
        with pytest.raises(CryptoError):
            esp_decapsulate(_context(), outer)
