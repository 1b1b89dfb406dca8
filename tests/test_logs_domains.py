"""Unit tests for domain folding, validity and subnet utilities."""

import ipaddress

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.logs.domains import (
    fold_domain,
    is_internal_domain,
    is_ip_address,
    is_valid_domain,
    same_subnet,
    subnet_key,
)


class TestIsIpAddress:
    def test_ipv4(self):
        assert is_ip_address("192.168.1.1")

    def test_ipv6(self):
        assert is_ip_address("2001:db8::1")

    def test_domain_is_not_ip(self):
        assert not is_ip_address("example.com")

    def test_almost_ip(self):
        assert not is_ip_address("192.168.1")

    def test_empty(self):
        assert not is_ip_address("")

    @given(st.one_of(
        st.ip_addresses().map(str),
        st.ip_addresses(v=6).map(lambda ip: f"{ip}%eth0"),
        st.ip_addresses(v=6).map(lambda ip: ip.exploded.upper()),
        st.ip_addresses(v=4).map(lambda ip: f"::ffff:{ip}"),
        # Near misses: a literal with something prepended, appended or
        # cut off, digit-final names, colons in non-addresses.
        st.tuples(
            st.ip_addresses().map(str),
            st.sampled_from([".", ".5", ":", "%", " ", "\n", "x", "/24", "\u0663"]),
        ).map("".join),
        st.tuples(
            st.sampled_from(["0", "x", " ", "::", "1."]),
            st.ip_addresses().map(str),
        ).map("".join),
        st.ip_addresses().map(lambda ip: str(ip)[:-1]),
        st.sampled_from(["host:8080", "4chan.org7", "1e5", "0x7f.1", "\u0661.2.3.4", ":"]),
        st.text(alphabet="0123456789abcdef.:%", max_size=12),
        st.text(max_size=8),
    ))
    def test_pretest_never_changes_the_answer(self, name):
        """The digit/colon pre-test only skips ``ipaddress`` for names
        it would reject."""
        try:
            ipaddress.ip_address(name)
            expected = True
        except ValueError:
            expected = False
        assert is_ip_address(name) is expected


class TestIsValidDomain:
    def test_simple(self):
        assert is_valid_domain("example.com")

    def test_subdomain(self):
        assert is_valid_domain("a.b.example.com")

    def test_single_label_rejected(self):
        assert not is_valid_domain("localhost")

    def test_ip_rejected(self):
        assert not is_valid_domain("10.0.0.1")

    def test_empty_rejected(self):
        assert not is_valid_domain("")

    def test_bad_characters_rejected(self):
        assert not is_valid_domain("exa mple.com")

    def test_overlong_rejected(self):
        assert not is_valid_domain("a" * 300 + ".com")

    def test_trailing_dot_allowed(self):
        assert is_valid_domain("example.com.")


class TestFoldDomain:
    def test_second_level(self):
        assert fold_domain("news.nbc.com") == "nbc.com"

    def test_already_second_level(self):
        assert fold_domain("nbc.com") == "nbc.com"

    def test_third_level(self):
        assert fold_domain("a.b.c.example", level=3) == "b.c.example"

    def test_fewer_labels_than_level(self):
        assert fold_domain("x.y", level=3) == "x.y"

    def test_lowercases(self):
        assert fold_domain("WWW.Example.COM") == "example.com"

    def test_strips_trailing_dot(self):
        assert fold_domain("www.example.com.") == "example.com"

    def test_deep_subdomain(self):
        assert fold_domain("a.b.c.d.e.nbc.com") == "nbc.com"

    def test_level_must_be_positive(self):
        with pytest.raises(ValueError):
            fold_domain("example.com", level=0)

    def test_same_entity_folds_identically(self):
        assert fold_domain("cdn.nbc.com") == fold_domain("mail.NBC.com")


class TestIsInternalDomain:
    def test_exact_suffix(self):
        assert is_internal_domain("corp.example", ("corp.example",))

    def test_subdomain_of_suffix(self):
        assert is_internal_domain("printer.corp.example", ("corp.example",))

    def test_non_internal(self):
        assert not is_internal_domain("evil.com", ("corp.example",))

    def test_suffix_must_match_label_boundary(self):
        # "notcorp.example" must not match suffix "corp.example".
        assert not is_internal_domain("notcorp.example", ("corp.example",))

    def test_multiple_suffixes(self):
        suffixes = ("corp.example", "int.c0")
        assert is_internal_domain("foo.int.c0", suffixes)

    def test_empty_suffix_tuple(self):
        assert not is_internal_domain("anything.com", ())


class TestSubnets:
    def test_subnet_key_24(self):
        assert subnet_key("93.184.216.34", 24) == "93.184.216.0/24"

    def test_subnet_key_16(self):
        assert subnet_key("93.184.216.34", 16) == "93.184.0.0/16"

    def test_same_24(self):
        assert same_subnet("1.2.3.4", "1.2.3.200", 24)

    def test_different_24_same_16(self):
        assert not same_subnet("1.2.3.4", "1.2.9.4", 24)
        assert same_subnet("1.2.3.4", "1.2.9.4", 16)

    def test_empty_ip_never_matches(self):
        assert not same_subnet("", "1.2.3.4", 24)
        assert not same_subnet("1.2.3.4", "", 16)

    def test_unsupported_prefix_rejected(self):
        with pytest.raises(ValueError):
            subnet_key("1.2.3.4", 23)

    # Text shaped like an address (dots, colons, digits incl. non-ASCII
    # ones, leading zeros, slashes, blanks) far more often than
    # arbitrary text is; plus arbitrary text.
    _ADDRESS_LIKE = st.one_of(
        st.text(alphabet="0123456789.:/ ٣²af-", max_size=18),
        st.lists(
            st.one_of(
                st.integers(0, 300).map(str),
                st.sampled_from(["", "00", "01", "0", "255", "256", " 1"]),
            ),
            min_size=3, max_size=5,
        ).map(".".join),
        st.ip_addresses().map(str),
        st.text(max_size=12),
    )

    @given(_ADDRESS_LIKE, st.sampled_from([8, 16, 24, 32]))
    def test_subnet_key_equals_ipaddress(self, ip, prefix):
        """The string fast path and the ``ipaddress`` fallback are one
        function: same network, or the same kind of refusal."""
        try:
            want = str(ipaddress.ip_network(f"{ip}/{prefix}", strict=False))
        except ValueError as exc:
            with pytest.raises(type(exc)):
                subnet_key(ip, prefix)
        else:
            assert subnet_key(ip, prefix) == want
