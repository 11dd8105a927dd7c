import numpy as np
import pytest

from nirscope.optics import (
    ExtinctionTable,
    _solve_matrix,
    default_extinction_table,
    intensity_to_od,
    mbll_forward,
    mbll_invert,
)

WLS = (760.0, 850.0)


def test_constant_series_maps_to_zero_od():
    od = intensity_to_od(np.full(50, 3.2))
    assert np.abs(od).max() < 1e-12


def test_analytic_point_value():
    x = np.ones(10)
    x[4] = np.exp(-1.0)
    od = intensity_to_od(x, reference=1.0)
    assert od[4] == pytest.approx(1.0, rel=1e-14)


def test_od_round_trip_random_series():
    rng = np.random.default_rng(0)
    x = 0.5 + rng.random(500)
    ref = float(x.mean())
    od = intensity_to_od(x)
    back = np.exp(-od) * ref
    assert np.allclose(back, x, rtol=1e-12, atol=0)


def test_od_rejects_nonpositive_inputs():
    with pytest.raises(ValueError):
        intensity_to_od([1.0, 0.0, 2.0])
    with pytest.raises(ValueError):
        intensity_to_od([1.0, 2.0], reference=-1.0)
    with pytest.raises(ValueError):
        intensity_to_od([])


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("n", [1638, 1199])
def test_od_rows_match_single_series(order, n):
    # The loader's arrays are column-major; each row's mean must still sum
    # its samples in the order it does for the series alone.
    x = np.asarray(0.5 + np.random.default_rng(n).random((28, n)), order=order)
    od = intensity_to_od(x)
    assert od.shape == x.shape
    for row, got in zip(x, od):
        assert got.tobytes() == (-np.log(row / float(np.mean(row)))).tobytes()
        assert got.tobytes() == intensity_to_od(row).tobytes()
    ref = intensity_to_od(x, reference=0.75)
    assert ref.tobytes() == (-np.log(np.ascontiguousarray(x) / 0.75)).tobytes()


def test_od_rows_reject_one_nonpositive_sample():
    x = np.ones((3, 20))
    x[2, 7] = 0.0
    with pytest.raises(ValueError, match="strictly positive"):
        intensity_to_od(x)


@pytest.mark.parametrize("n", [1638, 1199])
def test_mbll_rows_match_single_pairs(n):
    table = default_extinction_table()
    od1, od2 = np.random.default_rng(n).normal(size=(2, 6, n))
    distances = [0.03, 0.025, 0.03, 0.035, 0.025, 0.03]
    hbo, hbr = mbll_invert((od1, od2), WLS, distances, table)
    assert hbo.shape == hbr.shape == od1.shape
    for i, d in enumerate(distances):
        inv = np.linalg.inv(_solve_matrix(WLS[0], WLS[1], d, table))
        want = inv @ np.vstack([od1[i], od2[i]])
        assert hbo[i].tobytes() == want[0].tobytes()
        assert hbr[i].tobytes() == want[1].tobytes()
        one = mbll_invert((od1[i], od2[i]), WLS, d, table)
        assert one[0].tobytes() == want[0].tobytes()
        assert one[1].tobytes() == want[1].tobytes()
    # One distance serves every channel.
    same = mbll_invert((od1, od2), WLS, 0.03, table)
    assert same[0].tobytes() == mbll_invert((od1, od2), WLS, [0.03] * 6, table)[0].tobytes()


def test_mbll_rows_validate_distances():
    table = default_extinction_table()
    z = np.zeros((3, 10))
    with pytest.raises(ValueError, match="positive"):
        mbll_invert((z, z), WLS, [0.03, 0.0, 0.03], table)
    with pytest.raises(ValueError):
        mbll_invert((z, z), WLS, [0.03, 0.03], table)


def test_zero_od_gives_zero_concentrations():
    z = np.zeros(40)
    hbo, hbr = mbll_invert((z, z), WLS, 0.03, default_extinction_table())
    assert np.all(hbo == 0.0)
    assert np.all(hbr == 0.0)


def test_forward_inverse_recovers_known_concentrations():
    table = default_extinction_table()
    hbo = np.full(30, 1e-6)
    hbr = np.full(30, -3e-7)
    od = mbll_forward(hbo, hbr, WLS, 0.03, table)
    rec_hbo, rec_hbr = mbll_invert(od, WLS, 0.03, table)
    assert np.allclose(rec_hbo, hbo, rtol=1e-9)
    assert np.allclose(rec_hbr, hbr, rtol=1e-9)


def test_forward_inverse_round_trip_1000_random_pairs():
    table = default_extinction_table()
    rng = np.random.default_rng(17)
    hbo = rng.uniform(-5e-6, 5e-6, size=1000)
    hbr = rng.uniform(-5e-6, 5e-6, size=1000)
    od = mbll_forward(hbo, hbr, WLS, 0.03, table)
    rec_hbo, rec_hbr = mbll_invert(od, WLS, 0.03, table)
    scale = np.abs(np.concatenate([hbo, hbr])).max()
    assert np.abs(rec_hbo - hbo).max() <= 1e-9 * scale
    assert np.abs(rec_hbr - hbr).max() <= 1e-9 * scale


def test_proportional_extinction_rows_are_singular():
    table = ExtinctionTable(
        entries={760.0: (500.0, 1000.0), 850.0: (250.0, 500.0)},
        dpf={760.0: 6.0, 850.0: 6.0},
    )
    z = np.zeros(8)
    with pytest.raises(ValueError, match="singular"):
        mbll_invert((z, z), WLS, 0.03, table)


def test_inversion_is_linear():
    table = default_extinction_table()
    rng = np.random.default_rng(3)
    od_a = (rng.normal(size=100), rng.normal(size=100))
    od_b = (rng.normal(size=100), rng.normal(size=100))
    a, b = 2.5, -1.25
    combo = (a * od_a[0] + b * od_b[0], a * od_a[1] + b * od_b[1])
    hbo_c, hbr_c = mbll_invert(combo, WLS, 0.03, table)
    hbo_a, hbr_a = mbll_invert(od_a, WLS, 0.03, table)
    hbo_b, hbr_b = mbll_invert(od_b, WLS, 0.03, table)
    assert np.allclose(hbo_c, a * hbo_a + b * hbo_b, rtol=1e-10, atol=1e-16)
    assert np.allclose(hbr_c, a * hbr_a + b * hbr_b, rtol=1e-10, atol=1e-16)


def test_missing_wavelength_reports_available_ones():
    table = default_extinction_table()
    z = np.zeros(5)
    with pytest.raises(KeyError, match="690"):
        mbll_invert((z, z), (690.0, 850.0), 0.03, table)


def test_table_validation():
    with pytest.raises(ValueError):
        ExtinctionTable(entries={760.0: (-1.0, 100.0)})
    with pytest.raises(ValueError):
        ExtinctionTable(entries={760.0: (1.0, 100.0)}, dpf={760.0: 0.0})


def test_mismatched_series_lengths_rejected():
    table = default_extinction_table()
    with pytest.raises(ValueError):
        mbll_invert((np.zeros(5), np.zeros(6)), WLS, 0.03, table)
    with pytest.raises(ValueError):
        mbll_invert((np.zeros(5), np.zeros(5)), WLS, 0.0, table)


def test_extinction_table_csv_round_trip(tmp_path):
    path = tmp_path / "ext.csv"
    path.write_text(
        "wavelength_nm,eps_hbo,eps_hbr,dpf\n760,586.0,1548.52,6.0\n850,1058.0,691.32,5.5\n"
    )
    table = ExtinctionTable.from_csv(path)
    assert table.eps(760.0) == (586.0, 1548.52)
    assert table.pathlength_factor(850.0) == 5.5


def test_extinction_csv_requires_columns(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("wavelength_nm,eps_hbo\n760,586\n")
    with pytest.raises(ValueError, match="columns"):
        ExtinctionTable.from_csv(path)
