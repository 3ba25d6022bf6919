"""The runner's windowed evaluation stream against a per-evaluation spec.

:func:`repro.oracle.runner._eval_windows` builds each window's operand
and cell columns directly.  The reference below restates the stream one
evaluation at a time, as ``(first_of_case, operands, cell)``: the
leading full-matrix cases run every matrix cell in order, every later
case runs one cell round-robin, and the budget cuts the stream.  Cut
into windows, the reference must give the same columns and the same
per-window case counts, for every slice of the stream.
"""

from __future__ import annotations

import itertools
import zlib

import pytest

from repro.fpenv.rounding import RoundingMode
from repro.oracle.cases import generate_cases
from repro.oracle.exact import OP_ARITY
from repro.oracle.runner import (
    _eval_windows,
    _full_matrix_cases,
    eval_offset,
    op_case_count,
)
from repro.softfloat.formats import BINARY16, BINARY64, BINARY128, TINY8

FORMATS = (TINY8, BINARY16, BINARY64, BINARY128)
OPS = ("add", "sub", "mul", "div", "sqrt", "fma")
MATRIX = tuple(itertools.product(
    RoundingMode, ((False, False), (False, True), (True, False),
                   (True, True))))
MATRIX_LEN = len(MATRIX)  # 20
WINDOWS = (1, 7, 19, 97)
SEED = 13


def _reference_evals(op, fmt, budget, seed, matrix, case_lo, case_hi):
    """The evaluation stream, one ``(first_of_case, operands, cell)``
    at a time."""
    arity = OP_ARITY[op]
    matrix_len = len(matrix)
    fmc = _full_matrix_cases(fmt, arity, budget, matrix_len)
    case_seed = seed ^ (zlib.crc32(op.encode()) & 0xFFFF)
    cases = itertools.islice(generate_cases(fmt, arity, budget, case_seed),
                             case_lo, case_hi)

    def full_matrix():
        remaining = budget - eval_offset(case_lo, fmc, matrix_len, budget)
        for _, operands in zip(range(case_lo, fmc), cases):
            if remaining <= 0:
                return
            for cell in range(min(matrix_len, remaining)):
                yield cell == 0, operands, cell
            remaining -= matrix_len

    tail_lo = max(case_lo, fmc)
    tail_budget = max(0, budget - eval_offset(tail_lo, fmc, matrix_len,
                                              budget))
    tail_cells = itertools.islice(itertools.cycle(range(matrix_len)),
                                  (tail_lo - fmc) % matrix_len, None)
    tail = zip(itertools.repeat(True), itertools.islice(cases, tail_budget),
               tail_cells)
    return itertools.chain(full_matrix(), tail)


def _reference_windows(op, fmt, budget, matrix, case_lo, case_hi, window):
    """The reference stream cut every ``window`` evaluations, in the
    shape :func:`_eval_windows` yields."""
    stream = _reference_evals(op, fmt, budget, SEED, matrix, case_lo,
                              case_hi)
    out = []
    while chunk := list(itertools.islice(stream, window)):
        firsts, operands, cells = zip(*chunk)
        slots = [list(slot) for slot in zip(*operands)]
        out.append((firsts.count(True), slots, list(cells)))
    return out


def _budgets(fmt, op):
    """Budgets whose full-matrix head is longer than, as long as, and
    shorter than the whole stream."""
    budgets = [MATRIX_LEN - 3, MATRIX_LEN, 4 * MATRIX_LEN + 9, 700]
    if fmt is TINY8 and OP_ARITY[op] == 1:
        budgets.append(256 * MATRIX_LEN)  # exhaustive: head == budget
    return budgets


def _slices(fmt, op, budget):
    """Whole-stream, head-only, head-to-tail and tail-only slices."""
    fmc = _full_matrix_cases(fmt, OP_ARITY[op], budget, MATRIX_LEN)
    n_cases = op_case_count(fmt, op, budget, MATRIX_LEN)
    slices = {(0, None), (0, max(1, fmc // 2)), (fmc // 2, fmc + 3),
              (fmc + 1, n_cases - 2), (fmc + 5, None)}
    return [(lo, hi) for lo, hi in sorted(slices, key=str)
            if lo < n_cases and (hi is None or lo < hi)]


@pytest.mark.parametrize("fmt", FORMATS, ids=lambda f: f.name)
@pytest.mark.parametrize("op", OPS)
def test_windows_equal_the_per_evaluation_spec(fmt, op):
    checked = 0
    for budget in _budgets(fmt, op):
        for case_lo, case_hi in _slices(fmt, op, budget):
            for window in WINDOWS:
                got = [
                    (n_cases, [list(slot) for slot in slots], list(cells))
                    for n_cases, slots, cells in _eval_windows(
                        op, fmt, budget, SEED, MATRIX, case_lo, case_hi,
                        window)
                ]
                want = _reference_windows(op, fmt, budget, MATRIX, case_lo,
                                          case_hi, window)
                assert got == want, (budget, case_lo, case_hi, window)
                checked += bool(want)
    assert checked


def test_head_and_tail_share_a_window():
    """A head shorter than the window leaves room the tail fills: one
    window, not one per phase."""
    budget = 4 * MATRIX_LEN + 9
    fmc = _full_matrix_cases(BINARY64, 2, budget, MATRIX_LEN)
    assert 0 < fmc * MATRIX_LEN < budget
    windows = list(_eval_windows("add", BINARY64, budget, SEED, MATRIX, 0,
                                 None, 97))
    assert len(windows) == 1
    n_cases, _, cells = windows[0]
    assert len(cells) == budget
    assert n_cases == fmc + (budget - fmc * MATRIX_LEN)
