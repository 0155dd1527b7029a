"""CLI fuzzing: mutated input files end in exit 0, 1 or 2, never in a traceback.

The cases run in one child capped at 2 GB (conftest.run_capped), so an input that makes
the CLI allocate in proportion to a huge number fails there with MemoryError instead of
taking the host's memory, and each case has an alarm, so one that runs on fails at once.
"""

import contextlib
import io
import json
import os
import shutil
import signal

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from maxsat_qubo.cli import main
from maxsat_qubo.formula import parse_dimacs
from maxsat_qubo.qubo import write_qubo
from maxsat_qubo.transform import assemble, builtin_spec, write_pattern

from conftest import run_capped

_CASES = 250
_CASE_SECONDS = 5

_CNF = "p cnf 4 3\n1 2 3 0\n-1 2 -4 0\n-2 -3 -4 0\n"
_QUBO = write_qubo(*assemble(parse_dimacs(_CNF), builtin_spec("nuesslein")))
_PATTERN = write_pattern(builtin_spec("nuesslein").patterns[1], 1)
_CONFIGS = (
    {"kind": "comparison", "count": 1, "num_vars": 6, "num_clauses": 10, "seed": 3,
     "transforms": ["nuesslein", "fullapprox"], "solver": {"kind": "tabu", "iteration_limit": 5}},
    {"kind": "pruning_sweep", "count": 1, "num_vars": 6, "num_clauses": 10, "seed": 3,
     "transforms": ["nuesslein"], "solver": {"kind": "sa", "samples": 2, "sa_sweeps": 3}},
)
# per input kind: the base text and the commands that read it; {in} and {out} are paths
_COMMANDS = {
    "cnf": (_CNF, (["transform", "--method", "fullapprox"], ["transform", "--method", "nuesslein"],
                   ["solve", "--solver", "random", "--in", "{qubo}", "--cnf", "{in}"])),
    "qubo": (_QUBO, (["solve", "--solver", "random", "--samples", "3"],
                     ["solve", "--solver", "brute"], ["solve", "--solver", "tabu", "--iter", "20"],
                     ["solve", "--solver", "sa", "--sweeps", "5"],
                     ["solve", "--solver", "tabu", "--iter", "5", "--cnf", "{cnf}"],
                     ["prune", "--strategy", "min", "--stage", "5"],
                     ["prune", "--strategy", "random", "--stage", "10", "--seed", "3"])),
    "pattern": (_PATTERN, (["verify", "--criterion", "exact"],
                           ["verify", "--criterion", "approx", "--type", "2"])),
    "config": (None, (["experiment"],)),
}

_HUGE = (2**31, 10**12, 2**63, 2**64, 10**30, -(10**30))
_NEGATIVE = (-1, -7)
_NON_INTEGER_TOKENS = ("1.5", "x", "1e3", "nan", "0x10", "--")
_NON_INTEGER_VALUES = (1.5, True, False, "3", [], {})
# budgets stay uncapped, so they only get values that must be refused: never a huge one, and
# never None, which asks for the default budget (10,000·dim tabu iterations)
_BUDGETS = ("iteration_limit", "sa_sweeps")


def _mutate_lines(draw, text):
    """Text with one or two mutations: a token replaced by a huge, negative or non-integer
    value, a line dropped or duplicated, or the header repeated."""
    lines = text.splitlines()
    header = next(line for line in lines if line.startswith("p "))
    for _ in range(draw(st.integers(1, 2))):
        action = draw(st.sampled_from(["replace", "replace", "drop", "duplicate", "header"]))
        at = draw(st.integers(0, max(0, len(lines) - 1)))
        if action == "header":
            lines.insert(at, header)
        elif not lines:
            continue
        elif action == "drop":
            del lines[at]
        elif action == "duplicate":
            lines.insert(at, lines[at])
        elif lines[at].split():
            tokens = lines[at].split()
            value = draw(st.sampled_from(_HUGE + _NEGATIVE + _NON_INTEGER_TOKENS))
            tokens[draw(st.integers(0, len(tokens) - 1))] = str(value)
            lines[at] = " ".join(tokens)
    return "".join(line + "\n" for line in lines)


def _mutate_config(draw):
    """A base experiment config with one or two fields replaced, written one top-level field
    a line, then maybe a line dropped or duplicated. The solver object stays on one line, so
    no drop takes a budget out and leaves its solver to run the uncapped default."""
    config = json.loads(json.dumps(draw(st.sampled_from(_CONFIGS))))
    for _ in range(draw(st.integers(1, 2))):
        owner = draw(st.sampled_from([owner for owner in (config, config["solver"])
                                      if isinstance(owner, dict) and owner]))
        name = draw(st.sampled_from(sorted(owner)))
        pool = (_NEGATIVE + _NON_INTEGER_VALUES if name in _BUDGETS
                else _HUGE + _NEGATIVE + _NON_INTEGER_VALUES + (None,))
        owner[name] = draw(st.sampled_from(pool))
    text = "{\n" + ",\n".join(f"{json.dumps(name)}: {json.dumps(value)}"
                              for name, value in config.items()) + "\n}\n"
    if draw(st.booleans()):
        lines = text.splitlines()
        at = draw(st.integers(0, len(lines) - 1))
        lines[at:at + 1] = [] if draw(st.booleans()) else [lines[at]] * 2
        text = "".join(line + "\n" for line in lines)
    return text


class _CaseTimeout(BaseException):
    """Raised by the per-case alarm; a BaseException, so the CLI's handlers let it pass."""


def _alarm(signum, frame):
    raise _CaseTimeout(f"case ran past {_CASE_SECONDS} s")


def _run_case(root, kind, command, text):
    """Run one mutated case through cli.main in process and check how it ended."""
    shutil.rmtree(root, ignore_errors=True)
    os.makedirs(root)
    paths = {"in": os.path.join(root, "in.txt"), "out": os.path.join(root, "out"),
             "cnf": os.path.join(root, "base.cnf"), "qubo": os.path.join(root, "base.qubo")}
    for name, content in (("in", text), ("cnf", _CNF), ("qubo", _QUBO)):
        with open(paths[name], "w", encoding="utf-8") as fh:
            fh.write(content)
    argv = [arg.format(**paths) for arg in command]
    if kind == "pattern":
        argv += ["--pattern", paths["in"]]
    else:
        flag = "--config" if kind == "config" else "--in"
        argv += ([] if flag in argv else [flag, paths["in"]]) + ["--out", paths["out"]]
    stdout, stderr = io.StringIO(), io.StringIO()
    signal.setitimer(signal.ITIMER_REAL, _CASE_SECONDS)
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    err = stderr.getvalue()
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err
    if code != 0:
        # verify exits 1 for a pattern that fails the criterion, and says so on stdout
        reported = kind == "pattern" and "valid=False" in stdout.getvalue()
        assert reported or any(line.startswith(("error: ", "i/o error: "))
                               for line in err.splitlines()), (argv, code, err)
        assert not os.path.exists(paths["out"]), (argv, err)


def run_cases(root):
    """Run _CASES derandomized cases under root; print how many ran."""
    signal.signal(signal.SIGALRM, _alarm)
    ran = []

    @settings(derandomize=True, max_examples=_CASES, deadline=None, database=None,
              suppress_health_check=list(HealthCheck))
    @given(st.data())
    def fuzz(data):
        kind = data.draw(st.sampled_from(sorted(_COMMANDS)))
        text, commands = _COMMANDS[kind]
        command = data.draw(st.sampled_from(commands))
        mutated = _mutate_config(data.draw) if kind == "config" else _mutate_lines(data.draw, text)
        _run_case(os.path.join(root, "case"), kind, command, mutated)
        ran.append(kind)

    fuzz()
    print(len(ran))


def test_mutated_inputs_end_in_an_exit_code_not_a_traceback(tmp_path):
    tests = os.path.dirname(os.path.abspath(__file__))
    proc = run_capped(["-c", f"import sys; sys.path.insert(0, {tests!r}); "
                             f"import test_cli_fuzz; test_cli_fuzz.run_cases({str(tmp_path)!r})"])
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert int(proc.stdout.split()[-1]) >= 200
