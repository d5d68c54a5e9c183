"""Property-based round-trip checks for the three persistence codecs.

Each codec must reproduce arbitrary valid inputs exactly: DNS wire
encode/decode, stream-engine checkpoint save/load, and columnar segment
write/read. The engine's is a round-trip law in the sense of
:mod:`tests.property.laws`: an engine driven through a generated feed
is checkpointed mid-feed, and the loaded copy must answer the rest of
the feed as the original does. Runs only where ``hypothesis`` is
installed (it is an optional dev dependency; the suite must not
require it).
"""

import json
import tempfile

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings, strategies as st  # noqa: E402

from repro.core.references import (  # noqa: E402
    ProviderSignature,
    SignatureCatalog,
)
from repro.dnscore.message import make_query, make_response  # noqa: E402
from repro.dnscore.name import DomainName  # noqa: E402
from repro.dnscore.records import make_record  # noqa: E402
from repro.dnscore.rrtypes import RRType  # noqa: E402
from repro.dnscore.wire import decode_message, encode_message  # noqa: E402
from repro.faults.inject import PoisonedRow  # noqa: E402
from repro.measurement.scheduler import DayPartition  # noqa: E402
from repro.measurement.snapshot import DomainObservation  # noqa: E402
from repro.sketch import SketchConfig  # noqa: E402
from repro.store import SegmentStore, build_segment  # noqa: E402
from repro.stream.checkpoint import (  # noqa: E402
    load_checkpoint,
    save_checkpoint,
    state_digest,
)
from repro.stream.engine import StreamEngine  # noqa: E402

from tests.property.laws import (  # noqa: E402
    assert_same_text,
    plain,
    read_or_error,
)
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

#: One real catalog: an NS-referenced and a CNAME-referenced provider,
#: so the engine's plane has provider SLDs to exclude.
CATALOG = SignatureCatalog(
    [
        ProviderSignature(
            name="StubDPS",
            asns=frozenset(),
            cname_slds=frozenset(),
            ns_slds=frozenset({"stub-dps.net"}),
        ),
        ProviderSignature(
            name="EdgeDPS",
            asns=frozenset(),
            cname_slds=frozenset({"edge-cdn.net"}),
            ns_slds=frozenset(),
        ),
    ]
)
SOURCES = ("com", "net", "nl")
SCOPES = ("gtld", "nl")
#: Each name's DNS state is a fixed function of the day: ``alpha`` is
#: always on StubDPS, ``beta`` on it two days in three (so it has
#: on-demand peaks), ``gamma`` on EdgeDPS every other day and
#: ``delta`` on a third-party host.
NAMES = ("alpha", "beta", "gamma", "delta")


def _row(source, day, name):
    ns_names = ("ns1.plainhost.net.",)
    www_cnames = ()
    if name == "alpha" or (name == "beta" and day % 3 != 2):
        ns_names = ("ns1.stub-dps.net.",)
    elif name == "gamma" and day % 2 == 0:
        www_cnames = (f"{name}.edge-cdn.net",)
    elif name == "delta":
        ns_names = ("ns1.hostco.net.",)
    return DomainObservation(
        day=day,
        domain=f"{name}.{source}",
        tld=source,
        ns_names=ns_names,
        apex_addrs=("192.0.2.1",),
        www_cnames=www_cnames,
        asns=frozenset({64500}),
    )


#: A partition's fate in a generated feed; see :func:`feeds`.
FATES = ("apply", "apply", "twice", "delay", "delay", "poison")


@st.composite
def feeds(draw):
    """``(horizon, steps)``: a day-major feed of every source, each
    partition's fate drawn. It is applied, redelivered, withheld past a
    skip of its gap (a late arrival), or poisoned first (its scope
    quarantined, dropping what follows as holes, then released and the
    day redelivered clean). Withheld days are flushed at drawn points."""
    horizon = draw(st.integers(min_value=3, max_value=8))
    steps = []
    withheld = []

    def flush():
        steps.extend(("skip", source) for source in SOURCES)
        steps.extend(("release", scope) for scope in SCOPES)
        steps.extend(withheld)
        withheld.clear()

    for day in range(horizon):
        for source in SOURCES:
            names = draw(st.lists(st.sampled_from(NAMES), unique=True))
            delivery = ("deliver", source, day, tuple(names))
            fate = draw(st.sampled_from(FATES))
            stalled = any(step[1] == source for step in withheld)
            if fate == "poison" and not stalled:
                # Only a day that applies at once: a poisoned partition
                # buffered behind a gap cannot be checkpointed.
                steps.append(("poison", source, day))
                withheld.append(delivery)
            elif fate == "delay":
                withheld.append(delivery)
            else:
                steps.append(delivery)
                if fate == "twice":
                    steps.append(delivery)
        if withheld and draw(st.integers(min_value=0, max_value=2)) == 2:
            flush()
    flush()
    return horizon, steps


def apply_step(engine, step):
    """Run one :func:`feeds` step; returns what the engine answered."""
    kind, target = step[0], step[1]
    if kind == "skip":
        return engine.skip_missing(target)
    if kind == "release":
        if engine.is_quarantined(target):
            return engine.release_quarantine(target)
        return None
    day = step[2]
    rows = (
        [PoisonedRow()]
        if kind == "poison"
        else [_row(target, day, name) for name in step[3]]
    )
    return engine.ingest(
        DayPartition(
            source=target,
            day=day,
            zone_size=len(rows) + 1,
            observations=rows,
        ),
        on_duplicate="skip",
    )


def engine_reads(engine):
    """Everything a caller can read off an engine."""
    reads = {
        "counters": (
            engine.partitions_applied,
            engine.late_arrivals,
            engine.partitions_dropped,
        ),
        "quarantined": engine.quarantined_scopes,
        "expansion": engine.expansion_series(),
        "history": engine.domain_history("beta.com"),
    }
    for source in engine.sources:
        reads[source] = (
            engine.next_day(source),
            engine.resume_day(source),
            engine.pending_days(source),
            engine.missing_days(source),
            engine.zone_size_series(source),
        )
    for scope in engine.scope_names:
        reads[scope] = (
            engine.latest_day(scope),
            engine.detection(scope),
            engine.flux(scope),
            engine.peaks(scope),
            engine.adoption("StubDPS", scope=scope),
            engine.any_adoption(scope=scope),
            read_or_error(engine.growth, scope),
        )
        if engine.sketches is not None:
            sketches = engine.sketches.scope(scope)
            reads[scope] += (
                sketches.rows_observed,
                sketches.matched_rows,
                sketches.top_providers(3),
                sketches.top_third_parties(3),
                sketches.distinct_domains(),
                sketches.top_churn(3),
            )
    return plain(reads)


@st.composite
def engines(draw):
    """``(engine, rest)``: an engine driven through a drawn prefix of a
    :func:`feeds` feed, and the steps of the feed that remain. A share
    of the engines carry the production sketch plane
    (``SketchConfig()``)."""
    horizon, steps = draw(feeds())
    engine = StreamEngine(
        horizon,
        catalog=CATALOG,
        sources=SOURCES,
        windows={
            "com": (0, horizon),
            "net": (0, horizon),
            "nl": (1, horizon),
        },
        sketches=draw(st.sampled_from([None, None, None, SketchConfig()])),
    )
    cut = draw(st.integers(min_value=0, max_value=len(steps)))
    for step in steps[:cut]:
        apply_step(engine, step)
    return engine, steps[cut:]


#: The engine law's budget: 60 derandomized feeds of 3-8 days over
#: three sources, about 5 s on a 2-core box.
ENGINE_LAW = settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestCheckpointRoundtrip:
    @ENGINE_LAW
    @given(driven=engines())
    def test_save_load_preserves_state(self, driven):
        """Clause (a) through the on-disk checkpoint, then clause (b):
        the loaded engine and the original answer the rest of the feed
        step for step, and end in the same bytes and the same reads."""
        engine, rest = driven
        with tempfile.TemporaryDirectory() as directory:
            path = directory + "/ckpt"
            save_checkpoint(engine, path)
            loaded = load_checkpoint(path, catalog=CATALOG)
        assert state_digest(loaded) == state_digest(engine)
        for step in rest:
            answers = [
                plain(apply_step(each, step)) for each in (engine, loaded)
            ]
            assert answers[0] == answers[1], step
        assert state_digest(loaded) == state_digest(engine)
        assert engine_reads(loaded) == engine_reads(engine)

    @settings(RELAXED, derandomize=True)
    @given(driven=engines())
    def test_serialised_form_is_canonical(self, driven):
        engine, _ = driven
        first = json.dumps(engine.to_dict(), sort_keys=True)
        clone = StreamEngine.from_dict(engine.to_dict(), catalog=CATALOG)
        again = json.dumps(clone.to_dict(), sort_keys=True)
        assert_same_text(first, again)
