"""Bit-exact integer codes.

Two codes for positive integers k:

* plain binary, NOT prefix-free: binary representation of k without the
  leading 1, so |code| = floor(log2 k).  The length travels out of band.
      1 -> ""      5 -> "01"      12 -> "100"
* Elias delta, prefix-free: gamma-code the bit-length of k, then the
  remaining bits of k.  |code| <= log2 k + 2 log2(log2 k + 1) + 1.
      1 -> "1"     2 -> "0100"    17 -> "001010001"

Bit order is MSB-first within every field.
"""

from dataclasses import dataclass

from .errors import MalformedCodeword


@dataclass(frozen=True)
class BitString:
    """Immutable sequence of bits, stored as a '0'/'1' string."""

    bits: str = ""

    def __post_init__(self):
        if self.bits.strip("01"):
            raise ValueError("BitString accepts only '0' and '1' characters")

    def __len__(self) -> int:
        return len(self.bits)


def encode_plain(k: int) -> BitString:
    """Binary representation of k >= 1 without the leading digit."""
    if k < 1:
        raise ValueError("encode_plain needs k >= 1")
    return BitString(bin(k)[3:])


def decode_plain(b: BitString) -> int:
    """Prepend the implicit leading 1 and read as binary; inverse of encode_plain."""
    return int("1" + b.bits, 2)


def encode_delta(k: int) -> BitString:
    """Elias delta code of k >= 1."""
    if k < 1:
        raise ValueError("encode_delta needs k >= 1")
    n = k.bit_length()
    gamma = "0" * (n.bit_length() - 1) + bin(n)[2:]
    return BitString(gamma + bin(k)[3:])


def decode_delta(b: BitString) -> tuple:
    """Decode one delta codeword from the front of b; returns (k, bits consumed)."""
    s = b.bits
    z = s.find("1")
    if z < 0:
        raise MalformedCodeword("ran out of bits scanning the gamma prefix")
    if len(s) < 2 * z + 1:
        raise MalformedCodeword("truncated gamma length field")
    n = int(s[z:2 * z + 1], 2)
    end = 2 * z + 1 + (n - 1)
    if len(s) < end:
        raise MalformedCodeword("truncated payload")
    k = int("1" + s[2 * z + 1:end], 2)
    return k, end


def plain_code_length(k: int) -> int:
    """|encode_plain(k)| without building the code: floor(log2 k)."""
    return k.bit_length() - 1


def delta_code_length(k: int) -> int:
    """|encode_delta(k)| without building the code."""
    n = k.bit_length()
    return n + 2 * n.bit_length() - 2
