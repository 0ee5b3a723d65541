"""Minting tests.

encode_for_uri is checked against two independent routes: a reference
percent-decoder (urllib.parse.unquote in strict mode) must invert it,
and urllib.parse.quote with an empty safe set must agree character for
character.
"""

from __future__ import annotations

import urllib.parse
from datetime import date

import pytest
from hypothesis import given, strategies as st

from kgforge.mint import (
    MintConfig,
    encode_for_uri,
    mint_graph_iri,
    mint_resource_iri,
)
from kgforge.rdf import Iri

BASE = Iri("https://ditrare.ise.fiz-karlsruhe.de/chemotion-kg/")
CFG = MintConfig(base=BASE)


class TestEncodeForUri:
    def test_unreserved_identity(self):
        assert encode_for_uri("Raman-Spectrum_1.0~x") == "Raman-Spectrum_1.0~x"

    def test_space_slash_multibyte(self):
        assert encode_for_uri("a b/č") == "a%20b%2F%C4%8D"

    def test_empty(self):
        assert encode_for_uri("") == ""

    def test_percent_itself_is_encoded(self):
        assert encode_for_uri("100%") == "100%25"

    @given(st.text())
    def test_reference_decoder_inverts(self, s):
        assert urllib.parse.unquote(encode_for_uri(s), errors="strict") == s

    @given(st.text())
    def test_agrees_with_quote_empty_safe(self, s):
        assert encode_for_uri(s) == urllib.parse.quote(s, safe="")

    @given(st.text(), st.text())
    def test_injective(self, a, b):
        if a != b:
            assert encode_for_uri(a) != encode_for_uri(b)


class TestMintConfig:
    def test_base_needs_trailing_slash(self):
        with pytest.raises(ValueError, match="end with"):
            MintConfig(base=Iri("https://example.org/kg"))

    def test_unknown_granularity_rejected(self):
        with pytest.raises(ValueError, match="granularity"):
            MintConfig(base=BASE, graph_granularity="year")


class TestResourceIri:
    def test_chemotion_example(self):
        got = mint_resource_iri(
            CFG, 2014, 5, "10.14272/VRYFQVRFMNXTJS-UHFFFAOYSA-N", "Raman"
        )
        assert got == Iri(
            "https://ditrare.ise.fiz-karlsruhe.de/chemotion-kg/"
            "resources/2014/05/10.14272/VRYFQVRFMNXTJS-UHFFFAOYSA-N/Raman"
        )

    def test_suffix_with_space(self):
        got = mint_resource_iri(
            CFG, 2014, 5, "10.14272/VRYFQVRFMNXTJS-UHFFFAOYSA-N", "1H NMR"
        )
        assert got.value.endswith("/1H%20NMR")

    def test_source_id_slashes_survive(self):
        got = mint_resource_iri(CFG, 2020, 12, "10.14272/x/y", "s")
        assert "/resources/2020/12/10.14272/x/y/s" in got.value

    @pytest.mark.parametrize("month", [0, 13, -1])
    def test_month_out_of_range(self, month):
        with pytest.raises(ValueError, match="month"):
            mint_resource_iri(CFG, 2014, month, "10.14272/x", "s")

    def test_empty_source_id(self):
        with pytest.raises(ValueError, match="source_id"):
            mint_resource_iri(CFG, 2014, 5, "", "s")

    def test_month_zero_padded(self):
        assert "/2014/05/" in mint_resource_iri(CFG, 2014, 5, "x", "s").value


class TestGraphIri:
    def test_month_granularity(self):
        assert mint_graph_iri(CFG, date(2014, 5, 17)) == Iri(
            "https://ditrare.ise.fiz-karlsruhe.de/chemotion-kg/graphs/2014/05"
        )

    def test_same_month_same_graph(self):
        assert mint_graph_iri(CFG, date(2014, 5, 1)) == mint_graph_iri(
            CFG, date(2014, 5, 31)
        )

    def test_different_months_differ(self):
        assert mint_graph_iri(CFG, date(2014, 5, 1)) != mint_graph_iri(
            CFG, date(2014, 6, 1)
        )

    def test_day_granularity(self):
        cfg = MintConfig(base=BASE, graph_granularity="day")
        assert mint_graph_iri(cfg, date(2014, 5, 17)).value.endswith(
            "/graphs/2014/05/17"
        )
