"""Fuzz ``heraldsim analyze`` over mutated copies of a small binary and a small CSV tag file.

The mutations are bit flips, cuts at any byte and inserted bytes, and for
the CSV file also fields holding C0 controls, Unicode whitespace and huge
integers.  Every ``analyze`` runs in process through ``cli.main`` and must
exit 0 or 2 without raising.  A binary file cut at a record boundary reads
as a shorter, valid run and exits 0: format v1 cannot tell.

The examples run in one child process that caps its own address space, so
an allocation that runs away fails as a MemoryError instead of exhausting
the host.  A plain pytest run takes them derandomized, so the same examples
each time; ``pytest --hypothesis-profile=fuzz`` takes the many more examples
of the ``fuzz`` profile at random.
"""

import contextlib
import io
import os
import resource
import subprocess
import sys
import tempfile
import traceback
import warnings

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

CONTROLS = [chr(c) for c in range(0x20)] + ["\x7f"]
UNICODE_SPACES = [chr(c) for c in range(0x80, 0x3001) if chr(c).isspace()] + ["\ufeff"]
HUGE = [2**63 - 1, 2**63, -(2**63), -(2**63) - 1, 10**18, 10**19, 2**64, 10**30]

byte_ops = st.one_of(
    st.tuples(st.just("flip"), st.integers(0, 1 << 20), st.integers(0, 7)),
    st.tuples(st.just("cut"), st.integers(0, 1 << 20)),
    st.tuples(st.just("insert"), st.integers(0, 1 << 20), st.binary(min_size=1, max_size=16)),
)
field_text = st.one_of(
    st.text(st.sampled_from(CONTROLS + UNICODE_SPACES + list("0123456789+-")), max_size=24),
    st.builds(lambda pad, n, end: f"{pad}{n}{end}", st.sampled_from(["", " ", "\t", "\x1c", "\u3000"]),
              st.one_of(st.sampled_from(HUGE), st.integers(-(2**70), 2**70)),
              st.sampled_from(["", " ", "\x1f", "\u2028", "\x85"])),
)
field_ops = st.tuples(st.just("field"), st.integers(0, 1 << 20), st.integers(0, 1), field_text)


def mutated(data: bytes, ops) -> bytes:
    """``data`` after each op: a bit flip, a cut, inserted bytes, or a CSV row's field replaced."""
    data = bytearray(data)
    for op in ops:
        if op[0] == "field":
            lines = bytes(data).split(b"\n")
            row = lines[op[1] % len(lines)].split(b",")
            row[op[2] % len(row)] = op[3].encode()
            lines[op[1] % len(lines)] = b",".join(row)
            data = bytearray(b"\n".join(lines))
            continue
        at = op[1] % (len(data) + 1)
        if op[0] == "flip" and at < len(data):
            data[at] ^= 1 << op[2]
        elif op[0] == "cut":
            del data[at:]
        elif op[0] == "insert":
            data[at:at] = op[2]
    return bytes(data)


def test_analyze_exits_cleanly_on_mutated_files():
    child = subprocess.run([sys.executable, __file__, settings.get_current_profile_name()],
                           capture_output=True, text=True, timeout=3_600)
    assert child.returncode == 0, child.stdout[-6_000:] + child.stderr[-6_000:]


def _fuzz(profile: str, stack: contextlib.ExitStack) -> None:
    from heraldsim import ExperimentConfig, HeraldSelection, cli, run, tagio

    import conftest  # noqa: F401  (registers the fuzz profile)

    # a plain run takes a fixed set of examples, the fuzz profile its own number at random
    fixed = {} if profile == "fuzz" else {"derandomize": True, "max_examples": 400}
    chosen = settings(settings.get_profile(profile), database=None, deadline=None,
                      suppress_health_check=list(HealthCheck), **fixed)
    work = stack.enter_context(tempfile.TemporaryDirectory(prefix="analyze-fuzz-"))
    stream, _ = run(ExperimentConfig(mean_pairs_per_pulse=0.5, n_pulses=400, seed=5,
                                     herald_selection=HeraldSelection.exactly(1)))
    originals = {}
    for suffix, write in ((".tags", tagio.write_binary), (".csv", tagio.write_csv)):
        write(stream, os.path.join(work, "original" + suffix))
        with open(os.path.join(work, "original" + suffix), "rb") as fh:
            originals[suffix] = fh.read()

    def analyze(suffix: str, data: bytes, pair: str) -> None:
        path = os.path.join(work, "mutated" + suffix)
        with open(path, "wb") as fh:
            fh.write(data)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(["analyze", "--tags", path, "--pair", pair, "--out", os.path.join(work, "out")])
        assert code in (0, 2), err.getvalue()

    pairs = st.sampled_from(["herald_trigger,hbt_a", "hbt_a,hbt_b"])

    # a cut at a record boundary (16 header bytes, 12 per record) reads as a
    # shorter run; a flipped reserved byte, a channel id past the last, the top
    # bit of a timestamp
    @chosen
    @example(ops=[("cut", 16 + 12 * 40)], pair="herald_trigger,hbt_a")
    @example(ops=[("flip", 16 + 12 * 3 + 1, 0)], pair="hbt_a,hbt_b")
    @example(ops=[("flip", 16 + 12 * 3, 2)], pair="hbt_a,hbt_b")
    @example(ops=[("flip", 16 + 12 * 3 + 11, 7)], pair="herald_trigger,hbt_a")
    @given(ops=st.lists(byte_ops, min_size=1, max_size=4), pair=pairs)
    def binary_file(ops, pair):
        analyze(".tags", mutated(originals[".tags"], ops), pair)

    # a separator before the digits, a time past int64, a name followed by
    # Unicode whitespace, a last row at the top of int64
    @chosen
    @example(ops=[("field", 1, 1, "\x1c200")], pair="herald_trigger,hbt_a")
    @example(ops=[("field", 2, 1, str(2**63))], pair="herald_trigger,hbt_a")
    @example(ops=[("field", 1, 0, "hbt_a\u3000")], pair="hbt_a,hbt_b")
    @example(ops=[("field", -2, 1, str(2**63 - 1))], pair="herald_trigger,hbt_a")
    @given(ops=st.lists(st.one_of(byte_ops, field_ops), min_size=1, max_size=4), pair=pairs)
    def csv_file(ops, pair):
        analyze(".csv", mutated(originals[".csv"], ops), pair)

    binary_file()
    csv_file()


if __name__ == "__main__":
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
    # numpy's overflow and invalid-value warnings count as failures, as in the test suite
    warnings.filterwarnings("error", category=RuntimeWarning)
    try:
        with contextlib.ExitStack() as stack:
            _fuzz(sys.argv[1], stack)
    except BaseException:  # noqa: BLE001 - report the falsifying example and its traceback
        traceback.print_exc()
        sys.exit(1)
