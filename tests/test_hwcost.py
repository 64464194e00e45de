import itertools

import numpy as np
import pytest

from scdec.hwcost import (
    KIND_HIDDEN,
    KIND_INPUT,
    KIND_OUTPUT,
    CostReport,
    csa_stages,
    network_cost,
    node_cost,
    pareto_front,
)
from scdec.nn import NetworkConfig, QuantSpec


def test_csa_stage_counts():
    # classic 3:2 reduction schedule
    for terms, stages in ((1, 0), (2, 0), (3, 1), (4, 2), (5, 3), (6, 3),
                          (9, 4), (13, 5), (19, 6), (28, 7), (42, 8), (63, 9)):
        assert csa_stages(terms) == stages


def test_degenerate_output_node():
    r = node_cost(1, 1, "sqnl", KIND_OUTPUT)
    assert r.pp_bits == 1 and r.fa_count == 0 and r.tree_depth == 0


def test_hidden_node_partial_products():
    assert node_cost(8, 4, "sqnl", KIND_HIDDEN).pp_bits >= 8 * 16
    # the multiplier array itself is exactly m * b^2; the quadratic block
    # adds its own squarer
    relu = node_cost(8, 4, "relu", KIND_HIDDEN)
    assert relu.pp_bits == 8 * 16


def test_input_node_uses_and_gates():
    r = node_cost(8, 4, "relu", KIND_INPUT)
    assert r.pp_bits == 8 * 4


def test_tanh_has_no_hardware_model():
    with pytest.raises(ValueError):
        node_cost(8, 4, "tanh", KIND_HIDDEN)
    # output nodes carry no nonlinearity, any transfer is fine there
    node_cost(8, 4, "tanh", KIND_OUTPUT)


def test_node_cost_validates():
    with pytest.raises(ValueError):
        node_cost(0, 4, "sqnl", KIND_HIDDEN)
    with pytest.raises(ValueError):
        node_cost(4, 0, "sqnl", KIND_HIDDEN)
    with pytest.raises(ValueError):
        node_cost(4, 4, "sqnl", "nonsense")


@pytest.mark.parametrize("kind", (KIND_INPUT, KIND_HIDDEN, KIND_OUTPUT))
@pytest.mark.parametrize("fn", ("sqnl", "relu"))
def test_monotonicity_over_grid(kind, fn):
    """Every component is non-decreasing in m and b; bit operations grow
    strictly."""
    ms = sorted(set(range(1, 257, 5)) | {2, 256})
    bs = list(range(1, 10))
    for b in bs:
        prev = None
        for m in ms:
            r = node_cost(m, b, fn, kind)
            if prev is not None:
                assert r.pp_bits > prev.pp_bits
                assert r.bitops > prev.bitops
                assert r.fa_count >= prev.fa_count
                assert r.tree_depth >= prev.tree_depth
            prev = r
    for m in (1, 3, 17, 64, 256):
        prev = None
        for b in bs:
            r = node_cost(m, b, fn, kind)
            if prev is not None:
                assert r.pp_bits > prev.pp_bits
                assert r.bitops > prev.bitops
                assert r.fa_count >= prev.fa_count
                assert r.tree_depth >= prev.tree_depth
            prev = r


def test_network_additivity_exact():
    cfg = NetworkConfig(d=5, n1=16, n2=8, transfer="sqnl", quant=QuantSpec(5))
    total = network_cost(cfg)
    by_hand = CostReport(0, 0, 0, 0)
    n1 = node_cost(cfg.n_in, 5, "sqnl", KIND_INPUT)
    n2 = node_cost(cfg.n1, 5, "sqnl", KIND_HIDDEN)
    n3 = node_cost(cfg.n2, 5, "sqnl", KIND_OUTPUT)
    assert total.pp_bits == 16 * n1.pp_bits + 8 * n2.pp_bits + 2 * n3.pp_bits
    assert total.fa_count == 16 * n1.fa_count + 8 * n2.fa_count + 2 * n3.fa_count
    assert total.bitops == 16 * n1.bitops + 8 * n2.bitops + 2 * n3.bitops
    assert total.tree_depth == n1.tree_depth + n2.tree_depth + n3.tree_depth
    assert [name for name, _ in total.layers] == ["hidden1", "hidden2", "output"]


def test_doubling_layer_size_increases_cost():
    a = network_cost(NetworkConfig(d=5, n1=16, n2=8, quant=QuantSpec(5)))
    b = network_cost(NetworkConfig(d=5, n1=32, n2=8, quant=QuantSpec(5)))
    assert b.pp_bits > a.pp_bits and b.bitops > a.bitops


def test_rotation_sharing_changes_no_count():
    """A rotated net shares weights in training only; its datapath has as
    many nodes of each width as the unrotated one."""
    for d in (3, 9):
        rotated, plain = (network_cost(NetworkConfig(d=d, n1=16, n2=4, rotated=r,
                                                     quant=QuantSpec(5))).to_dict()
                          for r in (True, False))
        assert rotated == plain


def test_sweep_extremes_dominate():
    small = network_cost(NetworkConfig(d=9, n1=8, n2=4, quant=QuantSpec(3)))
    large = network_cost(NetworkConfig(d=9, n1=256, n2=64, quant=QuantSpec(9)))
    assert large.pp_bits > small.pp_bits
    assert large.fa_count > small.fa_count
    assert large.tree_depth > small.tree_depth
    assert large.bitops > small.bitops


def test_optimal_distance_report():
    from scdec.eval import FitResult
    from scdec.hwcost import optimal_distance_report

    # small distance: cheap, shallow slope; large: expensive, steep slope
    entries = [
        (3, 100.0, FitResult(0.083, 1.86, 0.0, 0.0)),
        (5, 1000.0, FitResult(0.104, 2.72, 0.0, 0.0)),
    ]
    rows = optimal_distance_report(entries, [10.0, 200.0, 2000.0],
                                   [0.001, 0.05, 0.2])
    # nothing affordable at budget 10
    assert not any(b == 10.0 for b, *_ in rows)
    under_200 = [r for r in rows if r[0] == 200.0]
    assert {r[2] for r in under_200} == {3}
    rich = {r[1]: r[2] for r in rows if r[0] == 2000.0}
    assert rich[0.001] == 5   # steep slope wins far below threshold
    assert rich[0.2] == 3     # d=3 has lower eps_l above both thresholds


# --------------------------------------------------------------- pareto --

def test_pareto_single_point():
    assert pareto_front([(3.0, 1.0)]) == [(3.0, 1.0)]


def test_pareto_dominated_pair():
    # cheaper and better strictly dominates
    assert pareto_front([(1.0, 2.0), (2.0, 1.0)]) == [(1.0, 2.0)]
    assert pareto_front([(1.0, 2.0), (2.0, 2.0)]) == [(1.0, 2.0)]
    assert pareto_front([(1.0, 2.0), (1.0, 1.0)]) == [(1.0, 2.0)]
    # incomparable points both stay
    assert pareto_front([(1.0, 1.0), (2.0, 2.0)]) == [(1.0, 1.0), (2.0, 2.0)]


def test_pareto_duplicates_survive():
    pts = [(1.0, 1.0), (1.0, 1.0)]
    assert pareto_front(pts) == pts


def test_pareto_empty_rejected():
    with pytest.raises(ValueError):
        pareto_front([])


def test_pareto_matches_bruteforce_on_random_clouds():
    rng = np.random.default_rng(0)
    for _ in range(30):
        pts = [(float(c), float(p))
               for c, p in rng.integers(0, 25, size=(100, 2))]
        got = pareto_front(pts)
        want = [
            (ci, pi)
            for i, (ci, pi) in enumerate(pts)
            if not any(
                (cj <= ci and pj >= pi) and (cj < ci or pj > pi)
                for j, (cj, pj) in enumerate(pts) if j != i
            )
        ]
        assert got == want
        # no dominated pair inside the front
        for a, b in itertools.permutations(got, 2):
            assert not ((a[0] <= b[0] and a[1] >= b[1]) and (a[0] < b[0] or a[1] > b[1]))
