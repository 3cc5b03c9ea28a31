"""Block decomposition: round trips, parity, raw projections, serialization."""

import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riemann_syzygy import curvature, decomp
from riemann_syzygy.curvature import (
    constant_curvature,
    exact,
    pseudo_riemann,
    ricci_scalar,
)
from riemann_syzygy.decomp import (
    FBlocks,
    decompose,
    fblocks_from_json,
    fblocks_to_json,
    raw_blocks,
    reconstruct,
)
from riemann_syzygy.gen import GenConfig, random_fblocks
from riemann_syzygy.thooft import ETA, ETABAR

from conftest import relaxed_tensor


def test_round_trip_blocks_to_blocks(samples):
    for fb in samples:
        assert decompose(reconstruct(fb)) == fb


def test_round_trip_tensor_to_tensor(samples):
    for fb in samples:
        t = reconstruct(fb)
        assert np.array_equal(reconstruct(decompose(t)), t)


# block scales: small numerators (int64), numerators that fit int64 but whose
# sums may not (Python ints), and entries with a denominator
_SCALES = [1, 2**56, Fraction(1, 7)]


def _scaled_blocks(fb, scale):
    return FBlocks(Ap=scale * fb.Ap, B=scale * fb.B, Am=scale * fb.Am)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**9), st.sampled_from(_SCALES))
def test_round_trip_property(seed, scale):
    fb = _scaled_blocks(random_fblocks(seed, GenConfig(bound=9)), scale)
    assert decompose(reconstruct(fb)) == fb


def test_scalar_curvature_matches_tensor(samples):
    for fb in samples[:3]:
        assert fb.scalar_curvature() == ricci_scalar(reconstruct(fb))


def test_constant_curvature_blocks():
    fb = decompose(constant_curvature(24))
    # pure scalar curvature: Ap = Am = (R/24) * identity, B = 0
    assert np.all(fb.B == 0)
    assert fb.is_einstein()
    assert np.array_equal(fb.Ap, fb.Am)
    assert fb.Ap[0, 0] == 1 and fb.Ap[0, 1] == 0


def test_parity_swaps_blocks(samples):
    fb = samples[0]
    p = fb.parity()
    assert np.array_equal(p.Ap, fb.Am)
    assert np.array_equal(p.Am, fb.Ap)
    assert np.array_equal(p.B, fb.B.T)
    assert p.parity() == fb


def test_weyl_blocks_are_traceless(samples):
    for fb in samples[:3]:
        wp, wm = fb.weyl_blocks()
        assert wp[0, 0] + wp[1, 1] + wp[2, 2] == 0
        assert wm[0, 0] + wm[1, 1] + wm[2, 2] == 0


def _one(ap, b, am):
    return FBlocks(Ap=ap, B=b, Am=am)


def _in_stack(ap, b, am):
    """The blocks as the second sample of a stack, behind a valid one."""
    good = np.zeros((3, 3), dtype=object)
    stacks = {name: np.stack([good, np.asarray(m)])
              for name, m in (("Ap", ap), ("B", b), ("Am", am))}
    return decomp.unstacked(stacks)[1]


# one sample and a stack are checked by the same code, with the same errors
_CHECKED_AS = (_one, _in_stack)


def test_fblocks_validation():
    good = np.zeros((3, 3), dtype=object)
    asym = good.copy()
    asym[0, 1] = 1  # not symmetric
    unbalanced = good.copy()
    unbalanced[0, 0] = 1  # tr Ap != tr Am
    for make in _CHECKED_AS:
        with pytest.raises(ValueError, match="^Ap must be symmetric$"):
            make(asym, good, good)
        with pytest.raises(ValueError, match="^Am must be symmetric$"):
            make(good, good, asym)
        with pytest.raises(ValueError, match=r"^tr\(Ap\) must equal tr\(Am\)$"):
            make(unbalanced, good, good)
        fb = make(unbalanced, asym, unbalanced)  # B is arbitrary
        assert all(not m.flags.writeable for m in (fb.Ap, fb.B, fb.Am))
    with pytest.raises(ValueError, match=r"^B must have shape \(3, 3\), got \(2, 2\)$"):
        FBlocks(Ap=good, B=np.zeros((2, 2), dtype=object), Am=good)
    with pytest.raises(ValueError, match=r"^Am must have shape \(1, 3, 3\), "
                       r"got \(2, 3, 3\)$"):
        decomp.unstacked({"Ap": good[None], "B": good[None],
                          "Am": np.stack([good, good])})


def test_fblocks_rejects_float_and_string_entries():
    good = np.zeros((3, 3), dtype=object)
    for make in _CHECKED_AS:
        for bad, kind in ((0.1, "float"), ("1/2", "str")):
            b = good.copy()
            b[0, 1] = bad
            with pytest.raises(TypeError,
                               match=f"^expected int or Fraction entry, got {kind}$"):
                make(good, b, good)
        with pytest.raises(TypeError, match="got float$"):
            make(good, np.full((3, 3), 0.5), good)


def test_unstacked_samples_are_views_with_their_own_memo():
    ap = np.array([np.eye(3, dtype=int) * k for k in range(4)], dtype=object)
    b = np.arange(36).reshape(4, 3, 3)
    fbs = decomp.unstacked({"Ap": ap, "B": b, "Am": ap})
    assert [fb.Ap[0, 0] for fb in fbs] == [0, 1, 2, 3]
    assert all(type(x) is int for fb in fbs for x in fb.B.flat)
    # the stacks were copied once, checked, and made read-only
    assert len({id(fb.B.base) for fb in fbs}) == 1
    assert not fbs[0].B.base.flags.writeable and fbs[0].B.base is not b
    assert len({id(fb.memo) for fb in fbs}) == 4
    assert fbs[2] == FBlocks(Ap=ap[2], B=b[2], Am=ap[2])
    assert decomp.unstacked({"Ap": ap[:0], "B": b[:0], "Am": ap[:0]}) == []


def test_decompose_rejects_non_curvature():
    with pytest.raises(ValueError, match="First Bianchi"):
        decompose(relaxed_tensor(3))


def test_decompose_scales_its_input_once(samples, monkeypatch):
    t = reconstruct(samples[0])
    calls = []
    scaled = curvature.scaled

    def counted(value):
        calls.append(value)
        return scaled(value)

    monkeypatch.setattr(curvature, "scaled", counted)
    monkeypatch.setattr(decomp, "scaled", counted)
    assert decompose(t) == samples[0]
    assert len(calls) == 1 and calls[0] is t


@pytest.mark.parametrize("scale", _SCALES + [2**61], ids=str)
def test_reconstruct_equals_its_scaled_form(samples, scale):
    # at scale 2**61 the identity triple's numerators fit int64, but its
    # R_1212 is 4 * 2**61 = 2**63, which does not
    one = np.eye(3, dtype=object)
    for fb in [FBlocks(Ap=one, B=one, Am=one), *samples[:3]]:
        fb = _scaled_blocks(fb, scale)
        s = decomp.reconstruct_scaled(decomp.stacked(fb))
        want = curvature.unscaled(s.num, s.den)
        got = reconstruct(fb)
        assert got.dtype == object
        assert [(type(x), x) for x in got.flat] == [(type(x), x) for x in want.flat]
        assert decompose(got) == fb


@pytest.mark.parametrize("scale", _SCALES + [2**61], ids=str)
def test_project_equals_the_einsum(samples, scale):
    # the three-operand contraction the matrix product S T S^T replaced
    etas = decomp._etas()
    one = np.eye(3, dtype=object)
    dtypes = set()
    for fb in [FBlocks(Ap=one, B=one, Am=one), *samples[:3]]:
        t = reconstruct(_scaled_blocks(fb, scale))
        for s in (curvature.scaled(t), curvature.scaled(pseudo_riemann(t))):
            num = curvature.widened(s, 16)
            dtypes.add(num.dtype)
            m = curvature.unscaled(np.einsum("abcd,iab,jcd->ij", num, etas, etas),
                                   s.den * 16)
            want = [m[:3, :3], m[:3, 3:], m[3:, :3], m[3:, 3:]]
            for got, block in zip(decomp._project(s), want, strict=True):
                assert [(type(x), x) for x in got.flat] == [(type(x), x) for x in block.flat]
    # the large scales take the Python-int path, the others int64
    big = scale in (2**56, 2**61)
    assert dtypes == {np.dtype(object) if big else np.dtype(np.int64)}


def test_no_bound_scan_where_the_bound_is_unused(samples, monkeypatch):
    """reconstruct, decompose and validate_riemann discard the bound of what
    they compute, so none of them scans a result for it."""
    t = reconstruct(samples[0])
    scans = []
    from_ints = curvature._from_ints
    monkeypatch.setattr(curvature, "_from_ints",
                        lambda *a: scans.append(a) or from_ints(*a))
    assert np.array_equal(reconstruct(samples[0]), t)
    assert decompose(t) == samples[0]
    assert curvature.validate_riemann(t).ok
    assert scans == []


def test_raw_blocks_of_valid_tensor(samples):
    fb = samples[0]
    fpp, fpm, fmp, fmm = raw_blocks(reconstruct(fb))
    assert np.array_equal(fpp, fb.Ap)
    assert np.array_equal(fpm, fb.B)
    assert np.array_equal(fmp, fb.B.T)
    assert np.array_equal(fmm, fb.Am)


def _raw_blocks_reference(t):
    """The four projections as object einsums, each scaled by 1/16."""
    return tuple(
        exact(Fraction(1, 16) * np.einsum("abcd,iab,jcd->ij", t, left, right))
        for left, right in ((ETA, ETA), (ETA, ETABAR), (ETABAR, ETA), (ETABAR, ETABAR))
    )


@pytest.mark.parametrize("scale", _SCALES, ids=str)
def test_raw_blocks_of_dual_tensor(samples, scale):
    for fb in samples[:3]:
        t = pseudo_riemann(reconstruct(_scaled_blocks(fb, scale)))
        got, want = raw_blocks(t), _raw_blocks_reference(t)
        # the dual's mixed blocks are not transposes of each other
        assert not np.array_equal(want[2], want[1].T)
        for a, b in zip(got, want):
            assert a.dtype == object and a.shape == (3, 3)
            assert [(type(x), x) for x in a.flat] == [(type(x), x) for x in b.flat]


def test_fblocks_json_round_trip(samples):
    fb = samples[0]
    text = fblocks_to_json(fb)
    data = json.loads(text)
    assert data["schema"] == "riemann-syzygy/1"
    assert fblocks_from_json(text) == fb


def test_fblocks_json_missing_block():
    with pytest.raises(ValueError, match="missing"):
        fblocks_from_json(json.dumps({"Ap": [[0] * 3] * 3}))


def test_fblocks_json_bad_schema_and_shape():
    zero = [[0] * 3] * 3
    with pytest.raises(ValueError, match="nonsense"):
        fblocks_from_json(json.dumps(
            {"schema": "nonsense", "Ap": zero, "B": zero, "Am": zero}
        ))
    with pytest.raises(ValueError, match=r"B must have shape \(3, 3\), got \(2, 3\)"):
        fblocks_from_json(json.dumps({"Ap": zero, "B": zero[:2], "Am": zero}))


def test_blocks_are_read_only():
    ap = np.array([[1, 2, 0], [2, 3, 1], [0, 1, 5]], dtype=object)
    b = np.arange(9, dtype=object).reshape(3, 3)
    am = np.array([[4, 0, 1], [0, 2, 0], [1, 0, 3]], dtype=object)
    fb = FBlocks(Ap=ap, B=b, Am=am)
    made = [fb, random_fblocks(5, GenConfig()), decompose(reconstruct(fb)),
            fb.parity()]
    for sample in made:
        for name in ("Ap", "B", "Am"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(sample, name)[0, 0] = 1
    # the arrays given to FBlocks are copied, not frozen
    for m in (ap, b, am):
        assert m.flags.writeable
    ap[0, 0] = 7
    assert fb.Ap[0, 0] == 1
