"""Unit tests for the interning pools."""

from repro.batch.columns import StringPool


class TestStringPool:
    def test_ids_are_dense_first_seen_order(self):
        pool = StringPool()
        assert pool.intern("a.com") == 0
        assert pool.intern("b.com") == 1
        assert pool.intern("a.com") == 0
        assert len(pool) == 2

    def test_value_round_trips(self):
        pool = StringPool()
        texts = ["x.org", "y.org", "x.org", "z.org"]
        ids = pool.intern_all(texts)
        assert pool.values(ids) == tuple(texts)
        assert [pool.value(i) for i in ids] == texts

    def test_intern_tuple_matches_intern_all(self):
        memoized, plain = StringPool(), StringPool()
        sets = [("ns1.a.net", "ns2.a.net"), (), ("ns1.a.net",)] * 2
        for values in sets:
            assert memoized.intern_tuple(values) == plain.intern_all(
                values
            )
        assert len(memoized) == len(plain)

    def test_intern_tuple_memoizes(self):
        pool = StringPool()
        first = pool.intern_tuple(("a", "b"))
        assert pool.intern_tuple(["a", "b"]) is first

    def test_lookup_does_not_allocate(self):
        pool = StringPool()
        assert pool.lookup("never-seen") is None
        assert len(pool) == 0
        pool.intern("seen")
        assert pool.lookup("seen") == 0

    def test_texts_kept_verbatim(self):
        pool = StringPool()
        # A non-canonical v6 spelling must round-trip byte-exact, not as
        # the ipaddress module's normalised form.
        spelling = "2001:0db8:0000:0000:0000:0000:0000:0001"
        index = pool.intern(spelling)
        assert pool.value(index) == spelling

    def test_invalid_text_is_interned_unparsed(self):
        # The pool never parses: whoever parses the text gets the error.
        pool = StringPool()
        index = pool.intern("not-an-address")
        assert pool.value(index) == "not-an-address"


class TestAddressPool:
    """Address texts share the StringPool with every other interned
    value; a tuple of addresses interns like any other tuple."""

    def test_intern_tuple_matches_intern_all(self):
        memoized, plain = StringPool(), StringPool()
        sets = [("192.0.2.1", "192.0.2.2"), (), ("192.0.2.1",)] * 2
        for texts in sets:
            assert memoized.intern_tuple(texts) == plain.intern_all(
                texts
            )
        assert len(memoized) == len(plain)
