"""The CLI contract as a property: argvs of extreme values, run in-process.

Every CSV command is run on argvs drawn from a grammar of extreme floats
and counts, with RuntimeWarnings raised as errors. The contract: no
exception escapes ``cli.run`` and the exit code is 0, 2, 3 or 4; a refusal
prints no document and exactly one ``lightwalk:`` line on stderr (argparse's
own usage errors excepted); a success prints only finite numbers, and the
numbers agree with the physics they report.
"""

import contextlib
import io
import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lightwalk.cli import EXIT_DOMAIN, EXIT_FILE, EXIT_OK, EXIT_USAGE, build_parser, run
from lightwalk.errors import MAX_ARRAY_LEN

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

EXTREME_FLOATS = [0.0, 5e-324, 1e-300, 1e300, 1.7e308, math.inf, math.nan]
FLOATS = st.one_of(
    st.sampled_from(EXTREME_FLOATS).flatmap(lambda x: st.sampled_from([x, -x])),
    st.floats(),  # any float, nan and the infinities among them
)
# counts near the lower bound 2, and from 1e15 on: so many doubles cannot be allocated,
# so such a run is refused at once. Counts from about 1e6 to 1e15 could be allocated
# and exhaust memory or time, so none is drawn.
COUNTS = st.one_of(
    st.integers(-1, 4),
    st.sampled_from([10**15, MAX_ARRAY_LEN - 1, MAX_ARRAY_LEN]),
    st.integers(10**15, MAX_ARRAY_LEN),
)
CONSTANTS = st.sampled_from(["paper", "codata"])
DIRECTIONS = st.sampled_from([1, -1, 0])  # 0 is one of argparse's own usage errors

# the flags each command may draw, over small fixed runs that a drawn flag overrides
FLAGS = {
    "speeds": {"--constants": CONSTANTS},
    "simulate": {
        "--constants": CONSTANTS, "--direction": DIRECTIONS, "--steps": COUNTS,
        "--grid-points": COUNTS,
        **dict.fromkeys(["--omega", "--delta", "--pi-hbark", "--pc-hbark", "--c0sq", "--x0",
                         "--t-max", "--grid-span"], FLOATS),
    },
    "bands": {
        "--constants": CONSTANTS, "--direction": DIRECTIONS, "--points": COUNTS,
        **dict.fromkeys(["--omega", "--delta", "--p-min-hbark", "--p-max-hbark"], FLOATS),
    },
    "separate": {
        "--constants": CONSTANTS,
        **dict.fromkeys(["--t", "--kappa", "--pi-hbark", "--c0sq"], FLOATS),
    },
}
FIXED_ARGS = {
    "speeds": [],
    "simulate": ["--species", "Mg-24", "--t-max", "1e-6", "--steps", "3", "--grid-points", "64"],
    "bands": ["--species", "Rb-87", "--points", "16"],
    "separate": ["--pair", "Mg-24,Mg-25,Rb-87", "--t", "1e-4"],
}
TEXT_COLUMNS = {"name", "name_a", "name_b", "resolvable"}


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(FLAGS)))
    flags = draw(st.lists(st.sampled_from(sorted(FLAGS[command])), max_size=3, unique=True))
    # "--flag=value" keeps a negative value such as -inf a value, not an option
    return [command, *FIXED_ARGS[command],
            *(f"{flag}={draw(FLAGS[command][flag])}" for flag in flags)]


@settings(max_examples=400, deadline=None)
@given(argvs())
def test_every_argv_keeps_the_cli_contract(argv):
    with contextlib.redirect_stderr(io.StringIO()) as stderr:
        code, document = run(argv)  # an escaping exception fails the example
    assert code in (EXIT_OK, EXIT_USAGE, EXIT_FILE, EXIT_DOMAIN)
    if code != EXIT_OK:
        assert document == ""
        if not (code == EXIT_USAGE and stderr.getvalue().startswith("usage: ")):
            assert re.fullmatch(r"lightwalk: [^\n]*\n", stderr.getvalue())
        return

    assert stderr.getvalue() == ""
    header, *rows = (line.split(",") for line in document.splitlines())
    columns = dict(zip(header, zip(*rows)))
    # every field is a finite number, but for the text columns and a never-resolving
    # pair's empty t_required_s
    numbers = {
        name: [float(value) for value in column if value or name != "t_required_s"]
        for name, column in columns.items() if name not in TEXT_COLUMNS
    }
    assert all(math.isfinite(x) for column in numbers.values() for x in column)
    if argv[0] == "simulate":
        assert all(abs(norm - 1.0) <= 1e-9 for norm in numbers["norm"])
        assert all(0.0 <= pop <= 1.0 for pop in numbers["pop_excited"])
    if argv[0] == "separate":
        kappa = build_parser().parse_args(argv).kappa
        for resolvable, gap, width_a, width_b in zip(
            columns["resolvable"], numbers["gap_m"], numbers["width_a_m"], numbers["width_b_m"]
        ):
            threshold = kappa * (width_a + width_b)
            # the CSV rounds both sides to 9 digits, so a near tie may print either way
            if not math.isclose(gap, threshold, rel_tol=1e-9):
                assert (resolvable == "true") == (gap >= threshold)
