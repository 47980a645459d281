import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moverb.room import (
    ImageSourceSpec,
    MicPosition,
    Room,
    as_arrays,
    attenuation,
    enumerate_images,
    estimate_image_count,
    image_distance,
    image_position,
)


def make_room(dims=(5.0, 6.0, 4.0), walls=0.9):
    return Room(dims=np.array(dims, dtype=float), wall_reflection=np.full(6, walls))


class TestRoomValidation:
    def test_rejects_nonpositive_dims(self):
        with pytest.raises(ValueError):
            Room(dims=np.array([5.0, 0.0, 4.0]), wall_reflection=np.full(6, 0.9))

    def test_rejects_reflection_out_of_range(self):
        with pytest.raises(ValueError):
            Room(dims=np.array([5.0, 6.0, 4.0]), wall_reflection=np.full(6, 1.5))
        with pytest.raises(ValueError):
            Room(dims=np.array([5.0, 6.0, 4.0]), wall_reflection=np.full(6, 0.0))

    def test_scalar_reflection_broadcasts(self):
        r = Room(dims=np.array([5.0, 6.0, 4.0]), wall_reflection=0.7)
        assert r.wall_reflection.shape == (6,)
        assert np.all(r.wall_reflection == 0.7)

    def test_contains(self):
        r = make_room()
        assert r.contains([2.5, 3.0, 2.0])
        assert not r.contains([5.0, 3.0, 2.0])
        assert not r.contains([2.5, 3.0, -0.1])

    def test_mic_inside_check(self):
        r = make_room()
        MicPosition(pos=np.array([1.0, 1.0, 1.0])).require_inside(r)
        with pytest.raises(ValueError):
            MicPosition(pos=np.array([9.0, 1.0, 1.0])).require_inside(r)


class TestEnumeration:
    def test_order_zero_is_direct_source(self):
        specs = enumerate_images(make_room(), 0)
        assert len(specs) == 1
        sp = specs[0]
        assert sp.order == 0
        assert sp.beta == 1.0
        assert tuple(sp.lattice) == (0, 0, 0)
        assert tuple(sp.parity) == (False, False, False)

    @pytest.mark.parametrize("max_order", [0, 1, 2, 3, 4])
    def test_counts_per_order(self, max_order):
        # order o > 0 contributes 4*o^2 + 2 images on the cubic unfolding
        specs = enumerate_images(make_room(), max_order)
        for o in range(max_order + 1):
            want = 1 if o == 0 else 4 * o * o + 2
            got = sum(1 for sp in specs if sp.order == o)
            assert got == want
        total = 1 + sum(4 * o * o + 2 for o in range(1, max_order + 1))
        assert len(specs) == total

    def test_no_duplicates(self):
        specs = enumerate_images(make_room(), 3)
        keys = {(tuple(sp.lattice), tuple(sp.parity)) for sp in specs}
        assert len(keys) == len(specs)

    def test_deterministic_ordering(self):
        a = enumerate_images(make_room(), 3)
        b = enumerate_images(make_room(), 3)
        assert a == b
        orders = [sp.order for sp in a]
        assert orders == sorted(orders)

    def test_first_order_betas_single_wall(self):
        walls = np.array([0.5, 0.6, 0.7, 0.8, 0.9, 0.95])
        r = Room(dims=np.array([5.0, 6.0, 4.0]), wall_reflection=walls)
        specs = [sp for sp in enumerate_images(r, 1) if sp.order == 1]
        betas = sorted(sp.beta for sp in specs)
        assert betas == sorted(walls.tolist())


def enumerate_images_by_loop(room, max_order):
    """Image enumeration as a triple loop over mirror indices, frozen here."""
    walls = room.wall_reflection
    specs = []
    for jx in range(-max_order, max_order + 1):
        rem_x = max_order - abs(jx)
        for jy in range(-rem_x, rem_x + 1):
            rem_y = rem_x - abs(jy)
            for jz in range(-rem_y, rem_y + 1):
                beta = 1.0
                lattice, parity = [], []
                for k, j in enumerate((jx, jy, jz)):
                    q = j % 2
                    lattice.append((j + q) // 2)
                    parity.append(bool(q))
                    if j >= 0:
                        h_minus, h_plus = j // 2, (j + 1) // 2
                    else:
                        h_minus, h_plus = (1 - j) // 2, -j // 2
                    beta *= walls[2 * k] ** h_minus * walls[2 * k + 1] ** h_plus
                specs.append(
                    ImageSourceSpec(
                        order=abs(jx) + abs(jy) + abs(jz),
                        lattice=tuple(lattice),
                        parity=tuple(parity),
                        beta=float(beta),
                    )
                )
    specs.sort()
    return specs


class TestEnumerationMatchesLoop:
    @pytest.mark.parametrize("max_order", range(11))
    def test_same_specs_order_and_beta_bits(self, max_order):
        rng = np.random.default_rng(max_order)
        walls = rng.uniform(0.05, 1.0, size=6)
        r = Room(dims=rng.uniform(1.0, 10.0, size=3), wall_reflection=walls)
        got = enumerate_images(r, max_order)
        want = enumerate_images_by_loop(r, max_order)
        # repr tells Python ints, bools and floats from numpy scalars
        assert repr(got) == repr(want)
        assert [sp.beta.hex() for sp in got] == [sp.beta.hex() for sp in want]


class TestImagePosition:
    def test_direct_image_is_source(self):
        r = make_room()
        sp = enumerate_images(r, 0)[0]
        src = np.array([1.0, 2.0, 3.0])
        assert np.allclose(image_position(sp, src, r), src)

    def test_first_order_mirror_across_x_low_wall(self):
        r = make_room()
        src = np.array([1.0, 2.0, 3.0])
        specs = enumerate_images(r, 1)
        positions = [image_position(sp, src, r) for sp in specs]
        # mirror across x = 0 is (-1, 2, 3)
        assert any(np.allclose(p, [-1.0, 2.0, 3.0]) for p in positions)
        # mirror across x = 5 is (9, 2, 3)
        assert any(np.allclose(p, [9.0, 2.0, 3.0]) for p in positions)
        # and similarly for y (12 - 2 = 10) and z (8 - 3 = 5)
        assert any(np.allclose(p, [1.0, -2.0, 3.0]) for p in positions)
        assert any(np.allclose(p, [1.0, 10.0, 3.0]) for p in positions)
        assert any(np.allclose(p, [1.0, 2.0, -3.0]) for p in positions)
        assert any(np.allclose(p, [1.0, 2.0, 5.0]) for p in positions)

    @given(
        sx=st.floats(0.1, 4.9),
        sy=st.floats(0.1, 5.9),
        sz=st.floats(0.1, 3.9),
    )
    @settings(max_examples=25, deadline=None)
    def test_images_affine_in_source(self, sx, sy, sz):
        # pos(a+b) - pos(a) depends only on the sign pattern, not the offset
        r = make_room()
        src_a = np.array([sx, sy, sz])
        src_b = src_a + np.array([0.05, -0.03, 0.02])
        for sp in enumerate_images(r, 2):
            delta = image_position(sp, src_b, r) - image_position(sp, src_a, r)
            sign = np.where(sp.parity, -1.0, 1.0)
            assert np.allclose(delta, sign * (src_b - src_a), atol=1e-12)

    def test_distance_matches_position(self):
        r = make_room()
        mic = MicPosition(pos=np.array([1.25, 2.6, 2.75]))
        src = np.array([0.8, 4.1, 2.75])
        for sp in enumerate_images(r, 2):
            d = image_distance(sp, src, mic, r)
            p = image_position(sp, src, r)
            assert d == pytest.approx(np.linalg.norm(p - mic.pos), abs=1e-12)


class TestAttenuation:
    def test_known_values(self):
        assert attenuation(0.5, 2.0) == pytest.approx(0.5 / (8 * np.pi), rel=1e-12)
        assert attenuation(1.0, 5.0) == pytest.approx(1.0 / (20 * np.pi), rel=1e-12)
        assert attenuation(0.5, 2.0) == pytest.approx(0.01989, abs=5e-6)
        assert attenuation(1.0, 5.0) == pytest.approx(0.015915, abs=5e-7)

    def test_rejects_nonpositive_distance(self):
        with pytest.raises(ValueError):
            attenuation(1.0, 0.0)
        with pytest.raises(ValueError):
            attenuation(1.0, np.array([2.0, 0.0]))

    def test_arrays_match_scalar_calls(self):
        beta = np.array([[0.5], [0.9]])
        d = np.array([[0.05, 2.0, 7.5], [1.0, 3.0, 40.0]])
        got = attenuation(beta, d)
        assert got.shape == d.shape
        for i in range(2):
            for j in range(3):
                assert got[i, j] == attenuation(float(beta[i, 0]), float(d[i, j]))


class TestBeta:
    def test_second_order_same_wall_squares(self):
        walls = np.array([0.5, 0.9, 0.9, 0.9, 0.9, 0.9])
        r = Room(dims=np.array([5.0, 6.0, 4.0]), wall_reflection=walls)
        specs = enumerate_images(r, 2)
        # the image two reflections deep through the x-low wall bounces off
        # x-low then x-high (or the reverse), never the same wall twice in a
        # straight unfolding, so order-2 x-axis betas are 0.5*0.9
        axis2 = [
            sp
            for sp in specs
            if sp.order == 2 and not sp.parity[0] and sp.lattice[0] != 0
        ]
        assert axis2
        for sp in axis2:
            assert sp.beta == pytest.approx(0.45, rel=1e-12)

    @given(order=st.integers(1, 3))
    @settings(max_examples=10, deadline=None)
    def test_beta_equals_product_of_hits(self, order):
        walls = np.array([0.5, 0.6, 0.7, 0.8, 0.9, 0.95])
        r = Room(dims=np.array([5.0, 6.0, 4.0]), wall_reflection=walls)
        for sp in enumerate_images(r, order):
            # total wall hits must equal the order
            log_beta = np.log(sp.beta) if sp.beta > 0 else 0.0
            # reconstruct: solve hit counts from lattice and parity per axis
            hits = 0
            for k in range(3):
                j = 2 * sp.lattice[k] - (1 if sp.parity[k] else 0)
                hits += abs(j)
            assert hits == sp.order
            assert log_beta <= 0.0


class TestAsArrays:
    def test_shapes_and_consistency(self):
        r = make_room()
        specs = enumerate_images(r, 2)
        offset, sign, beta, order = as_arrays(specs, r)
        assert offset.shape == (len(specs), 3)
        assert sign.shape == (len(specs), 3)
        assert beta.shape == (len(specs),)
        assert order.shape == (len(specs),)
        src = np.array([0.8, 4.1, 2.75])
        for i, sp in enumerate(specs):
            want = image_position(sp, src, r)
            got = offset[i] + sign[i] * src
            assert np.allclose(got, want, atol=1e-12)
            assert beta[i] == sp.beta
            assert order[i] == sp.order


class TestImageCountEstimate:
    def test_medium_room_budget(self):
        r = Room(dims=np.array([9.0, 10.0, 9.0]), wall_reflection=np.full(6, 0.9))
        est = estimate_image_count(r, 0.6)
        # continuous lattice-ball volume (4pi/3) R^3 / V with R = c*t60
        radius = 343.0 * 0.6
        volume = 9.0 * 10.0 * 9.0
        cont = 4.0 * np.pi / 3.0 * radius**3 / volume
        assert est == pytest.approx(cont, rel=0.05)
        assert 22500 <= est <= 90000

    def test_scales_with_inverse_volume(self):
        small = Room(dims=np.array([4.0, 5.0, 3.0]), wall_reflection=np.full(6, 0.9))
        large = Room(dims=np.array([8.0, 10.0, 6.0]), wall_reflection=np.full(6, 0.9))
        ratio = estimate_image_count(small, 0.5) / estimate_image_count(large, 0.5)
        assert ratio == pytest.approx(8.0, rel=0.05)

    @staticmethod
    def whole_plane_count(room, t60, c=343.0):
        """The count from the whole (x, y) plane of the lattice at once, frozen here."""
        radius = c * t60
        lx, ly, lz = (float(d) for d in room.dims)
        r2 = radius * radius
        mx = np.arange(-int(radius // lx), int(radius // lx) + 1)
        my = np.arange(-int(radius // ly), int(radius // ly) + 1)
        rem = r2 - (mx[:, None] * lx) ** 2 - (my[None, :] * ly) ** 2
        rem = np.maximum(rem, -1.0)
        nz = np.floor(np.sqrt(np.maximum(rem, 0.0)) / lz)
        return int(np.where(rem >= 0.0, 2.0 * nz + 1.0, 0.0).sum())

    @pytest.mark.parametrize(
        "dims, t60s",
        [
            ((9.0, 10.0, 9.0), (0.05, 0.6, 2.0, 5.0, 20.0)),
            ((5.0, 6.0, 4.0), (0.05, 0.6, 2.0, 5.0)),
            ((3.1, 7.3, 2.9), (0.01, 0.6, 2.0, 5.0)),
            ((3.43, 6.86, 1.715), (0.1, 1.0, 3.0)),
        ],
    )
    def test_rows_count_as_the_whole_plane(self, dims, t60s):
        room = make_room(dims)
        for t60 in t60s:
            assert estimate_image_count(room, t60) == self.whole_plane_count(room, t60)

    def test_memory_grows_with_reach_not_its_square(self):
        # the whole (x, y) plane at once took 69 MB in this room at t60 = 20 s
        room = make_room((9.0, 10.0, 9.0))
        tracemalloc.start()
        try:
            estimate_image_count(room, 20.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6, f"{peak / 1e6:.2f} MB"

    def test_zero_reach_counts_only_direct(self):
        r = make_room()
        assert estimate_image_count(r, 1e-9) == 1

    @pytest.mark.parametrize("value", [float("inf"), float("nan"), 0.0, -1.0])
    @pytest.mark.parametrize("field", ["t60", "c"])
    def test_rejects_out_of_range_inputs(self, field, value):
        # a non-finite t60 or c failed converting NaN to an integer, in a
        # message that named neither
        kwargs = {"t60": 0.5, "c": 343.0, field: value}
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            estimate_image_count(make_room(), **kwargs)


class TestSpecOrdering:
    def test_spec_tuple_ordering_is_total(self):
        a = ImageSourceSpec(
            order=1, lattice=(0, 0, 0), parity=(True, False, False), beta=0.9
        )
        b = ImageSourceSpec(
            order=2, lattice=(0, 0, 0), parity=(True, True, False), beta=0.81
        )
        assert a < b
        assert sorted([b, a]) == [a, b]

    def test_a_spec_holds_no_instance_dict(self):
        spec = enumerate_images(make_room(), 1)[0]
        assert not hasattr(spec, "__dict__")

    def test_order8_list_is_small(self):
        # 833 slotted specs hold 0.083 MB; with no slots they held 0.116 MB
        room = make_room()
        enumerate_images(room, 8)  # warm-up
        tracemalloc.start()
        try:
            specs = enumerate_images(room, 8)
            held = tracemalloc.get_traced_memory()[0] / 1e6
        finally:
            tracemalloc.stop()
        assert len(specs) == 833
        assert held < 0.1, f"{held:.3f} MB"
