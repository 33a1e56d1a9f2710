import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pfrlab import (BitString, MalformedCodeword, decode_delta, decode_plain,
                    delta_code_length, encode_delta, encode_plain, plain_code_length)
from conftest import delta_length_calculus


class TestPlain:
    def test_one_is_empty(self):
        assert encode_plain(1).bits == ""
        assert decode_plain(BitString("")) == 1

    def test_five(self):
        assert encode_plain(5).bits == "01"
        assert decode_plain(BitString("01")) == 5

    def test_power_of_two(self):
        assert encode_plain(2 ** 20).bits == "0" * 20

    def test_round_trip_range(self):
        for k in list(range(1, 3000)) + [10 ** 6, 2 ** 40 + 17]:
            b = encode_plain(k)
            assert decode_plain(b) == k
            assert len(b) == plain_code_length(k) == int(math.log2(k))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            encode_plain(0)


class TestDelta:
    def test_hand_encodings(self):
        assert encode_delta(1).bits == "1"
        assert encode_delta(2).bits == "0100"
        assert encode_delta(17).bits == "001010001"

    def test_hand_decodings(self):
        assert decode_delta(BitString("1")) == (1, 1)
        assert decode_delta(BitString("001010001")) == (17, 9)

    def test_concatenation(self):
        joined = encode_delta(3).bits + encode_delta(7).bits
        v1, used = decode_delta(BitString(joined))
        v2, used2 = decode_delta(BitString(joined[used:]))
        assert (v1, v2) == (3, 7)
        assert used + used2 == len(joined)

    def test_round_trip_and_length_bound(self):
        for k in list(range(1, 3000)) + [65536, 10 ** 6]:
            b = encode_delta(k)
            v, used = decode_delta(b)
            assert v == k and used == len(b)
            assert len(b) == delta_code_length(k)
            assert len(b) <= math.log2(k) + 2 * math.log2(math.log2(k) + 1) + 1 + 1e-9

    def test_malformed(self):
        with pytest.raises(MalformedCodeword):
            decode_delta(BitString("000000"))
        with pytest.raises(MalformedCodeword):
            decode_delta(BitString(""))
        with pytest.raises(MalformedCodeword):
            decode_delta(BitString("00101"))  # truncated payload of 17

    def test_prefix_free_and_kraft_up_to_24_bits(self):
        # all delta codewords of length <= 24 come from k < 2^16
        words = []
        kraft = 0.0
        for k in range(1, 2 ** 16):
            n = delta_code_length(k)
            if n <= 24:
                words.append(encode_delta(k).bits)
                kraft += 2.0 ** -n
        assert kraft <= 1.0
        # sorted adjacent check suffices for prefix-freeness
        words.sort()
        assert all(not b.startswith(a) for a, b in zip(words, words[1:]))


class TestLengthCalculus:
    def test_plug_ins(self):
        assert delta_length_calculus(0.0)[0] == 1.0
        assert delta_length_calculus(3.0)[0] == 8.0
        assert delta_length_calculus(0.5)[1] == 0.0

    def test_inverse_lower_bound_chain(self):
        # L(L_inv_lower(a)) <= a on a dense grid of a >= 1
        for a in [1.0 + 0.037 * i for i in range(400)]:
            _, inv = delta_length_calculus(a)
            assert delta_length_calculus(inv)[0] <= a + 1e-12

    def test_code_length_within_calculus(self):
        for k in range(1, 5000):
            big_l, _ = delta_length_calculus(math.log2(k))
            assert delta_code_length(k) <= big_l + 1e-9


class TestBitString:
    def test_validation(self):
        with pytest.raises(ValueError):
            BitString("010x")


PROPERTY = settings(max_examples=200, deadline=None, derandomize=True, database=None)


class TestLargeIntegers:
    @PROPERTY
    @given(k=st.integers(min_value=1, max_value=2**256))
    def test_delta_round_trip(self, k):
        b = encode_delta(k)
        assert decode_delta(b) == (k, len(b))
        assert len(b) == delta_code_length(k)

    @PROPERTY
    @given(k=st.integers(min_value=1, max_value=2**256))
    def test_plain_round_trip(self, k):
        b = encode_plain(k)
        assert decode_plain(b) == k
        assert len(b) == plain_code_length(k)
