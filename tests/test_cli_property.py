"""Property test of the whole command line: random admissible and inadmissible
configs and flags end in a documented exit code, with a diagnosis on stderr
and no traceback or warning from the package."""

import contextlib
import io
import json
import tempfile
import warnings
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

import mowave
from mowave.harness import main

PACKAGE = str(Path(mowave.__file__).parent)
EXIT_CODES = {0, 2, 3, 4, 5, 6}
EDGES = [0.0, -1.0, 5e-324, 1e-300, 1e300]  # zero, negative, subnormal, tiny, huge


def mostly(ordinary, edges):
    """One of ordinary, or one time in twenty one of edges; shrinks to ordinary."""
    return st.integers(1, 20).flatmap(lambda i: st.sampled_from(edges if i == 20 else ordinary))


def numbers(*ordinary):
    return mostly(ordinary, EDGES)


damping = st.fixed_dictionaries({"a": numbers(0.5, 1.0, 20.0), "b": numbers(1.0, 4.0), "rho": numbers(0.5, 1.0, 3.0)})
beta = st.one_of(
    st.fixed_dictionaries({"variant": st.just("constant"), "c": numbers(1.0, 5.0)}),
    st.fixed_dictionaries({"variant": st.just("exponential"), "beta0": numbers(1.0), "mu": numbers(0.1, 2.0)}),
    st.fixed_dictionaries({"variant": st.just("polynomial"), "coeffs": st.lists(numbers(0.5, 1.0), min_size=1, max_size=3)}),
)
alpha = st.one_of(
    st.just({"variant": "constant"}),
    st.fixed_dictionaries({"variant": st.just("affine"), "k": mostly([0.3, 0.99], EDGES + [1.0])}),
    st.fixed_dictionaries({"variant": st.just("saturating"), "k": mostly([0.5], EDGES + [2.0]), "tau": numbers(1.0, 4.0)}),
)
init = st.one_of(
    st.fixed_dictionaries(
        {"variant": st.just("sine"), "m": mostly([1, 2], [0, -1]), "amp_u0": numbers(1.0, 10.0), "amp_u1": numbers(0.5)}
    ),
    st.fixed_dictionaries(
        {"variant": st.just("bump"), "center": numbers(0.5, 0.3), "width": numbers(0.1, 0.25), "amp": numbers(1.0)}
    ),
)
config = st.fixed_dictionaries(
    {"damping": damping, "beta": beta, "alpha": alpha, "init": init, "horizon": mostly([0.1, 0.5], [0.0, -1.0, 5e-324])},
    optional={
        "manufactured": st.fixed_dictionaries({"amp": numbers(1.0), "rate": numbers(1.0), "mode": mostly([1, 2], [0, -1])})
    },
)
flags = st.fixed_dictionaries(
    {
        "grid_n": mostly(["8", "16", "32"], ["0", "-1", "1000000000000"]),
        "cfl": mostly(["0.3", "0.5", "1.0", "2.0"], ["0", "-1", "5e-324", "1e-300", "1e300", "nan", "inf"]),
        "sample_every": mostly(["1", "3", "10"], ["0", "-1", "1000000000000"]),
        "grids": mostly(["8,16", "16,32", "8,16,32"], ["16,16", "4,8", "-8,16", "16,1000000000000"]),
        "axes": st.dictionaries(st.sampled_from(["a", "b", "rho", "k", "mu"]), st.lists(numbers(0.5, 1.0), min_size=1, max_size=2), max_size=2),
    }
)

BUMP = {"variant": "bump", "center": 0.5, "width": 5e-324, "amp": 1.0}
README = {
    "damping": {"a": 1.0, "b": 1.0, "rho": 1.0},
    "beta": {"variant": "exponential", "beta0": 1.0, "mu": 0.1},
    "alpha": {"variant": "saturating", "k": 0.5, "tau": 1.0},
    "init": {"variant": "sine", "m": 1, "amp_u0": 1.0, "amp_u1": 0.0},
    "horizon": 0.5,
}
DEFAULT_FLAGS = {"grid_n": "32", "cfl": "1.0", "sample_every": "3", "grids": "8,16", "axes": {"mu": [0.5]}}


def run(argv):
    """main(argv) in-process: its exit code, its stderr lines and the warnings it raised."""
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
    return code, err.getvalue().splitlines(), caught


@settings(max_examples=40, deadline=None)
@given(config, flags)
@example(dict(README, init=BUMP), DEFAULT_FLAGS)  # s = (y - center)/width overflowed at every node
@example(dict(README, horizon=-1.0), DEFAULT_FLAGS)  # sweep sized its batches from a negative step count
@example(dict(README, manufactured={"amp": 1.0, "rate": 1e300, "mode": 1}), DEFAULT_FLAGS)  # rate^2 overflowed in _Source
def test_every_command_ends_in_a_documented_exit_code(cfg, flags):
    with tempfile.TemporaryDirectory() as tmp:
        path, sweep_path, out = Path(tmp, "c.json"), Path(tmp, "s.json"), Path(tmp, "out")
        path.write_text(json.dumps(cfg))
        sweep_path.write_text(json.dumps({"base": cfg, "axes": flags["axes"]}))
        commands = [
            ["certify", str(path)],
            ["simulate", str(path), f"--grid-n={flags['grid_n']}", f"--cfl={flags['cfl']}",
             f"--sample-every={flags['sample_every']}", f"--outdir={out / 'run'}"],
            ["convergence", str(path), f"--grid-n={flags['grids']}", f"--cfl={flags['cfl']}"],
            ["sweep", str(sweep_path), "--jobs=1", f"--grid-n={flags['grid_n']}", f"--cfl={flags['cfl']}",
             f"--sample-every={flags['sample_every']}", f"--outdir={out / 'sweep'}"],
        ]
        for argv in commands:
            code, lines, caught = run(argv)
            assert code in EXIT_CODES, argv
            assert all(line.startswith(("mowave: ", "[pass] ", "[FAIL] ")) for line in lines), (argv, lines)
            assert [str(w.message) for w in caught if w.filename.startswith(PACKAGE)] == [], argv
