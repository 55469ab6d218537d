"""The journal follower: incremental reads must equal a from-zero fold.

``JournalFollower`` is the only journal reader; workers, the coordinator
and mission control poll it instead of re-reading ``fleet.jsonl``.  These
tests pin the equivalence (against a reference parser kept here, so the
follower is not checked against itself), the whole-lines rule around
torn tails, the restart on a replaced journal, the from-zero
confirmation before "finished", and that a worker's journal work is
linear in the journal rather than quadratic.
"""

import json
import os
import tempfile
import types
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from fleet_helpers import Cell, compute
from repro.cache import ResultCache
from repro.fleet import run_fleet
from repro.fleet import journal as jn

FP = "0" * 64
KEYS = ["k0", "k1", "k2", "k3"]


def _reference_records(path: Path) -> list[dict]:
    """Whole lines only; anything that does not parse is skipped."""
    out = []
    data = path.read_bytes() if path.exists() else b""
    for line in data.split(b"\n")[:-1]:
        try:
            record = json.loads(line.decode())
        except ValueError:
            continue
        if isinstance(record, dict) and "kind" in record:
            out.append(record)
    return out


def _check(follower: jn.JournalFollower) -> None:
    state = follower.refresh()
    records = _reference_records(follower.path)
    expected = jn.fold(records)
    assert state == expected
    assert follower.records == records == jn.read_records(follower.path)
    assert [c.key for c in state.open_cells()] == \
        [c.key for c in expected.ordered() if c.open]
    assert state == jn.load_state(follower.path)


def _line(record: dict) -> bytes:
    return (json.dumps(record, sort_keys=True) + "\n").encode()


def _raw_append(path: Path, data: bytes) -> None:
    with path.open("ab") as fh:
        fh.write(data)


def _plan(path: Path, indices: list[int], cached: list[bool]) -> None:
    header = jn.new_header(
        runner_spec="fleet_helpers:compute",
        config_type_spec="fleet_helpers:Cell", fingerprint=FP,
        cache_dir="/nowhere", n_cells=len(indices), max_attempts=3,
        backoff_base=0.5, lease_ttl=30.0, clock=lambda: 0.0)
    jn.write_plan(path, header, [
        {"kind": "cell", "cell": KEYS[i], "index": index,
         "cached": cached[i], "config": {"tag": f"c{i}"}}
        for i, index in enumerate(indices)])


lifecycle = st.one_of(
    st.fixed_dictionaries({
        "kind": st.just("claim"),
        "cell": st.sampled_from(KEYS + ["stranger"]),
        "worker": st.sampled_from(["w0", "w1"]), "t": st.just(1.0)}),
    st.fixed_dictionaries({
        "kind": st.just("done"), "cell": st.sampled_from(KEYS),
        "worker": st.sampled_from(["w0", "w1"]),
        "from_cache": st.booleans()}),
    st.fixed_dictionaries({
        "kind": st.sampled_from(["error", "reclaim"]),
        "cell": st.sampled_from(KEYS),
        "worker": st.sampled_from(["w0", "w1"]),
        "attempt": st.integers(0, 3),
        "not_before": st.floats(0, 100, allow_nan=False),
        "error": st.just("ValueError: x"),
        "terminal": st.booleans(), "fatal": st.booleans()}),
    st.fixed_dictionaries({
        "kind": st.just("drain"), "worker": st.sampled_from(["w0", "w1"]),
        "signal": st.just("SIGTERM")}),
)

plans = st.integers(1, len(KEYS)).flatmap(lambda n: st.tuples(
    # grid order, or any order: the state must re-derive its open list
    st.one_of(st.just(list(range(n))), st.permutations(list(range(n)))),
    st.lists(st.booleans(), min_size=n, max_size=n)))

steps = st.one_of(
    st.tuples(st.just("append"), lifecycle),
    # several records written as one blob cut at arbitrary byte offsets
    st.tuples(st.just("chunks"), st.lists(lifecycle, min_size=1, max_size=3),
              st.lists(st.floats(0, 1), max_size=4)),
    # a writer killed after a prefix of its record reached the disk
    st.tuples(st.just("torn"), lifecycle, st.floats(0, 1)),
    # junk between records, undecodable bytes included
    st.tuples(st.just("junk"), st.binary(max_size=12)),
    # a new plan moved over the journal: a different inode
    st.tuples(st.just("replan"), plans),
)


@settings(max_examples=60, deadline=None)
@given(plan=plans, script=st.lists(steps, max_size=12))
def test_follower_equals_from_zero_fold(plan, script):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / jn.JOURNAL_NAME
        follower = jn.JournalFollower(path, keep_records=True)
        _check(follower)  # no journal yet
        _plan(path, *plan)
        _check(follower)
        for step in script:
            if step[0] == "append":
                jn.append_record(path, step[1])
            elif step[0] == "chunks":
                blob = b"".join(_line(r) for r in step[1])
                cuts = sorted({int(f * len(blob)) for f in step[2]})
                for a, b in zip([0] + cuts, cuts + [len(blob)]):
                    _raw_append(path, blob[a:b])
                    _check(follower)
            elif step[0] == "torn":
                line = _line(step[1])
                _raw_append(path, line[:int(step[2] * (len(line) - 1))])
            elif step[0] == "junk":
                _raw_append(path, step[1] + b"\n")
            else:
                _plan(path, *step[1])
            _check(follower)


def test_tail_torn_at_every_offset_then_healed(tmp_path):
    torn = {"kind": "done", "cell": "k0", "worker": "w0", "t": 2.0}
    heal = {"kind": "done", "cell": "k1", "worker": "w1", "t": 3.0}
    line = _line(torn)
    for cut in range(1, len(line)):
        path = tmp_path / f"cut{cut}" / jn.JOURNAL_NAME
        _plan(path, [0, 1], [False, False])
        follower = jn.JournalFollower(path, keep_records=True)
        _check(follower)
        _raw_append(path, line[:cut])
        _check(follower)
        # unterminated, so unconsumed — even when only the "\n" is missing
        assert follower.state.cells["k0"].status == jn.PENDING
        jn.append_record(path, heal)
        _check(follower)
        assert follower.state.cells["k1"].status == jn.DONE
        # the healing newline completed the fragment: it counts iff whole
        whole = cut == len(line) - 1
        assert (follower.state.cells["k0"].status == jn.DONE) == whole


def test_undecodable_line_is_skipped_not_fatal(tmp_path):
    path = tmp_path / jn.JOURNAL_NAME
    _plan(path, [0, 1], [False, False])
    jn.append_record(path, {"kind": "done", "cell": "k0", "worker": "w0"})
    _raw_append(path, b"\xff\xfe\x00bit rot\x80\n")
    jn.append_record(path, {"kind": "done", "cell": "k1", "worker": "w1"})
    state = jn.load_state(path)
    assert state.cells["k0"].status == jn.DONE
    assert state.cells["k1"].status == jn.DONE
    assert len(jn.read_records(path)) == 5


def test_finished_confirms_from_byte_zero(tmp_path):
    """A journal rewritten under the same inode and longer than the
    follower's offset is invisible to ``refresh`` (same file, nothing
    shrank); ``finished`` must not end the sweep on that stale state."""
    path = tmp_path / jn.JOURNAL_NAME
    _plan(path, [0], [True])
    follower = jn.JournalFollower(path)
    assert follower.finished()
    consumed = path.stat().st_size
    replacement = _line({"kind": "cell", "cell": "k1", "index": 0,
                         "config": {"tag": "x" * consumed}})
    with path.open("r+b") as fh:  # in place: the inode stays
        fh.write(replacement)
    assert not follower.refresh().open_cells()  # stale: mid-line tail only
    assert not follower.finished()
    assert [c.key for c in follower.state.open_cells()] == ["k1"]


def test_worker_journal_work_is_linear(tmp_path, monkeypatch):
    """Draining N cells parses O(N) journal lines and never sorts the grid
    per claim (a re-read per claim would be ~N/2 parses per cell)."""
    parses = sorts = 0

    def counting_loads(text):
        nonlocal parses
        parses += 1
        return json.loads(text)

    ordered = jn.FleetState.ordered

    def counting_ordered(self):
        nonlocal sorts
        sorts += 1
        return ordered(self)

    monkeypatch.setattr(jn, "json", types.SimpleNamespace(
        loads=counting_loads, dumps=json.dumps))
    monkeypatch.setattr(jn.FleetState, "ordered", counting_ordered)
    cells = [Cell(tag=f"c{i}") for i in range(400)]
    result = run_fleet(cells, fleet_dir=tmp_path / "fleet", workers=0,
                       cache=ResultCache(tmp_path / "cache", fingerprint=FP),
                       runner=compute)
    assert result.complete and result.computed == 400
    with (tmp_path / "fleet" / jn.JOURNAL_NAME).open("rb") as fh:
        n_records = sum(1 for _ in fh)
    assert n_records == 1 + 3 * 400
    assert parses <= 8 * n_records
    assert sorts <= 4  # the coordinator's one-shot readers, not the claims
