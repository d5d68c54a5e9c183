"""Property-based round-trip checks for the three persistence codecs.

Each codec must reproduce arbitrary valid inputs exactly: DNS wire
encode/decode, stream-engine checkpoint save/load, and columnar segment
write/read. Runs only where ``hypothesis`` is installed (it is an
optional dev dependency; the suite must not require it).
"""

import json
import tempfile

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings, strategies as st  # noqa: E402

from repro.core.references import RefType  # noqa: E402
from repro.dnscore.message import make_query, make_response  # noqa: E402
from repro.dnscore.name import DomainName  # noqa: E402
from repro.dnscore.records import make_record  # noqa: E402
from repro.dnscore.rrtypes import RRType  # noqa: E402
from repro.dnscore.wire import decode_message, encode_message  # noqa: E402
from repro.measurement.scheduler import DayPartition  # noqa: E402
from repro.measurement.snapshot import DomainObservation  # noqa: E402
from repro.store import SegmentStore, build_segment  # noqa: E402
from repro.stream.checkpoint import (  # noqa: E402
    load_checkpoint,
    save_checkpoint,
    state_digest,
)
from repro.stream.engine import StreamEngine  # noqa: E402

from tests.store.cells import (  # noqa: E402
    row_columns,
    segment_roundtrip,
    stored_cells,
)

RELAXED = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

label = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz0123456789-",
    min_size=1,
    max_size=12,
).filter(lambda text: not text.startswith("-") and not text.endswith("-"))

dns_name = st.lists(label, min_size=1, max_size=4).map(
    lambda labels: ".".join(labels)
)

ipv4 = st.ip_addresses(v=4).map(str)
ipv6 = st.ip_addresses(v=6).map(str)


# -- dnscore.wire --------------------------------------------------------------


@st.composite
def wire_messages(draw):
    qname = draw(dns_name)
    query = make_query(
        DomainName.from_text(qname),
        draw(st.sampled_from([RRType.A, RRType.AAAA, RRType.NS])),
        msg_id=draw(st.integers(min_value=0, max_value=0xFFFF)),
    )
    response = make_response(query, authoritative=draw(st.booleans()))
    # A possibly-empty CNAME chain followed by address records — IPv6
    # included; an empty chain is the plain-hosting common case.
    chain = draw(st.lists(dns_name, max_size=3))
    owner = qname
    for target in chain:
        response.answers.append(
            make_record(owner, RRType.CNAME, target + ".")
        )
        owner = target
    for address in draw(st.lists(ipv4, max_size=3)):
        response.answers.append(make_record(owner, RRType.A, address))
    for address in draw(st.lists(ipv6, max_size=3)):
        response.answers.append(make_record(owner, RRType.AAAA, address))
    for ns in draw(st.lists(dns_name, max_size=2)):
        response.authority.append(
            make_record(qname, RRType.NS, ns + ".")
        )
    return response


class TestWireRoundtrip:
    @RELAXED
    @given(message=wire_messages())
    def test_encode_decode_is_identity(self, message):
        decoded = decode_message(encode_message(message))
        assert decoded.msg_id == message.msg_id
        assert decoded.question == message.question
        assert decoded.answers == message.answers
        assert decoded.authority == message.authority
        assert decoded.flags == message.flags

    @RELAXED
    @given(message=wire_messages())
    def test_encoding_is_deterministic(self, message):
        assert encode_message(message) == encode_message(message)


# -- store.SegmentStore --------------------------------------------------------


@st.composite
def observations(draw, day):
    domain = draw(dns_name) + ".com"
    return DomainObservation(
        day=day,
        domain=domain,
        tld="com",
        ns_names=tuple(
            sorted(draw(st.lists(dns_name.map(lambda n: n + "."), max_size=3)))
        ),
        apex_addrs=tuple(sorted(draw(st.lists(ipv4, max_size=2)))),
        www_cnames=tuple(draw(st.lists(dns_name, max_size=2))),
        www_addrs=tuple(sorted(draw(st.lists(ipv4, max_size=2)))),
        apex_addrs6=tuple(sorted(draw(st.lists(ipv6, max_size=2)))),
        www_addrs6=tuple(sorted(draw(st.lists(ipv6, max_size=2)))),
        asns=frozenset(
            draw(st.lists(st.integers(1, 2**31 - 1), max_size=3))
        ),
    )


#: (source, day, rows) partitions of one ``com`` history.
histories = st.integers(min_value=1, max_value=3).flatmap(
    lambda days: st.tuples(
        *(
            st.lists(observations(day), max_size=4).map(
                lambda rows, day=day: ("com", day, rows)
            )
            for day in range(days)
        )
    )
)


def landed(directory, history):
    """*history* bulk-loaded into a fresh store at *directory*."""
    store = SegmentStore(directory, create=True)
    store.append_partitions(history)
    return store


class TestStorageRoundtrip:
    @RELAXED
    @given(history=histories)
    def test_save_load_reproduces_rows(self, history):
        with tempfile.TemporaryDirectory() as directory:
            landed(directory, history).close()
            with SegmentStore(directory) as loaded:
                assert loaded.partitions() == [
                    (source, day) for source, day, _ in history
                ]
                for source, day, rows in history:
                    assert list(loaded.rows(source, day)) == rows

    @RELAXED
    @given(history=histories)
    def test_encode_decode_partition_is_identity(self, history):
        with tempfile.TemporaryDirectory() as directory:
            with landed(directory, history) as store:
                for source, day, rows in history:
                    decoded = stored_cells(store, source, day)
                    assert decoded == row_columns(rows)

    @RELAXED
    @given(history=histories)
    def test_batches_equal_rows(self, history):
        """The columnar read path re-materialises exactly the rows the
        row path yields, partition for partition, in order."""
        with tempfile.TemporaryDirectory() as directory:
            with landed(directory, history) as store:
                streamed = [
                    (source, day, batch.rows())
                    for source, day, batch in store.batches()
                ]
                assert streamed == [
                    (source, day, list(store.rows(source, day)))
                    for source, day in store.partitions()
                ]


#: The cell shapes a stored column can hold, each paired with a column
#: of that kind: strings (unicode included), flat lists of strings, and
#: lists of ints — the shapes append()/append_batch() actually write.
stored_column = st.one_of(
    st.tuples(st.just("domain"), st.lists(st.text(max_size=24), max_size=60)),
    st.tuples(
        st.just("ns_names"),
        st.lists(st.lists(st.text(max_size=12), max_size=4), max_size=60),
    ),
    st.tuples(
        st.just("asns"),
        st.lists(
            st.lists(st.integers(0, 2**32 - 1), max_size=4).map(sorted),
            max_size=60,
        ),
    ),
)


class TestColumnCodecProperties:
    @RELAXED
    @given(column=stored_column)
    def test_encode_decode_is_identity(self, column):
        name, values = column
        assert segment_roundtrip(name, values) == values

    @RELAXED
    @given(column=stored_column)
    def test_encoding_is_deterministic(self, column):
        name, values = column
        assert build_segment([("com", 0, {name: values})]) == build_segment(
            [("com", 0, {name: list(values)})]
        )


# -- stream.checkpoint ---------------------------------------------------------


class StubCatalog:
    def match(self, observation):
        if observation.domain.startswith("prot"):
            return {"StubDPS": frozenset({RefType.NS})}
        return {}


@st.composite
def engines(draw):
    horizon = draw(st.integers(min_value=2, max_value=8))
    engine = StreamEngine(
        horizon,
        catalog=StubCatalog(),
        sources=("com",),
        windows={"com": (0, horizon)},
    )
    days = draw(
        st.lists(
            st.integers(min_value=0, max_value=horizon - 1),
            unique=True,
            min_size=1,
            max_size=horizon,
        )
    )
    for day in days:
        rows = [
            DomainObservation(
                day=day,
                domain=name,
                tld="com",
                ns_names=(f"ns1.{name}.",),
                apex_addrs=("192.0.2.1",),
                asns=frozenset({64500}),
            )
            for name in draw(
                st.lists(
                    st.sampled_from(
                        ["prot-a.com", "prot-b.com", "plain-c.com"]
                    ),
                    unique=True,
                    max_size=3,
                )
            )
        ]
        engine.ingest(
            DayPartition(
                source="com",
                day=day,
                zone_size=len(rows),
                observations=rows,
            )
        )
    return engine


class TestCheckpointRoundtrip:
    @RELAXED
    @given(engine=engines())
    def test_save_load_preserves_state(self, engine):
        with tempfile.TemporaryDirectory() as directory:
            path = directory + "/ckpt"
            save_checkpoint(engine, path)
            loaded = load_checkpoint(path, catalog=StubCatalog())
        assert state_digest(loaded) == state_digest(engine)
        assert loaded.to_dict() == engine.to_dict()

    @RELAXED
    @given(engine=engines())
    def test_serialised_form_is_canonical(self, engine):
        first = json.dumps(engine.to_dict(), sort_keys=True)
        clone = StreamEngine.from_dict(
            engine.to_dict(), catalog=StubCatalog()
        )
        assert json.dumps(clone.to_dict(), sort_keys=True) == first
