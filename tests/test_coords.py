import copy
import dataclasses
import math
import pickle

import numpy as np
import pytest

from radarbias import coords
from radarbias.errors import NonFiniteTransform, ZeroVector

import oracles


def assert_rotation(r, tol=1e-12):
    np.testing.assert_allclose(np.asarray(r, dtype=float).T @ r, np.eye(3), atol=tol)
    assert abs(float(np.linalg.det(np.asarray(r, dtype=float))) - 1.0) < tol


class TestSphericalCartesian:
    def test_axis_case(self):
        np.testing.assert_allclose(
            coords.spherical_to_cartesian(coords.SphericalTriple(1.0, 0.0, 0.0)),
            [1.0, 0.0, 0.0], atol=1e-15)

    def test_pole_case(self):
        np.testing.assert_allclose(
            coords.spherical_to_cartesian(coords.SphericalTriple(2.0, 0.0, math.pi / 2)),
            [0.0, 0.0, 2.0], atol=1e-15)

    def test_east_axis_inverse(self):
        trip = coords.cartesian_to_spherical([0.0, 1.0, 0.0])
        assert trip.range_m == pytest.approx(1.0)
        assert trip.azimuth == pytest.approx(math.pi / 2)
        assert trip.elevation == pytest.approx(0.0)

    def test_back_quadrant(self):
        # a naive arctan(y/x) would return 0 here
        trip = coords.cartesian_to_spherical([-1.0, 0.0, 0.0])
        assert trip.azimuth == pytest.approx(math.pi)
        np.testing.assert_allclose(
            coords.spherical_to_cartesian(trip), [-1.0, 0.0, 0.0], atol=1e-15)

    def test_negative_pole_convention(self):
        trip = coords.cartesian_to_spherical([0.0, 0.0, -3.0])
        assert trip.range_m == pytest.approx(3.0)
        assert trip.azimuth == 0.0
        assert trip.elevation == pytest.approx(-math.pi / 2)
        assert trip.at_pole

    def test_zero_vector_rejected(self):
        with pytest.raises(ZeroVector):
            coords.cartesian_to_spherical([0.0, 0.0, 0.0])

    def test_large_range_representable(self):
        # squaring 1e200 overflows; the range itself does not
        assert coords.cartesian_to_spherical([1e200, 0.0, 0.0]).range_m == 1e200
        trip = coords.cartesian_to_spherical([1e200, 1e200, 1e200])
        assert trip.range_m == pytest.approx(math.sqrt(3.0) * 1e200, rel=1e-15)
        assert trip.azimuth == pytest.approx(math.pi / 4, rel=1e-15)
        assert trip.elevation == pytest.approx(math.atan(1 / math.sqrt(2.0)), rel=1e-15)

    def test_overflowing_range_rejected(self):
        with pytest.raises(NonFiniteTransform):
            coords.cartesian_to_spherical([1.7e308, 1.7e308, 1.7e308])

    def test_round_trip_random(self):
        rng = np.random.default_rng(101)
        for _ in range(2000):
            p = coords.SphericalTriple(
                range_m=rng.uniform(1e-3, 1e7),
                azimuth=rng.uniform(-np.pi, np.pi),
                elevation=rng.uniform(-np.pi / 2 + 1e-6, np.pi / 2 - 1e-6),
            )
            back = coords.cartesian_to_spherical(coords.spherical_to_cartesian(p))
            assert back.range_m == pytest.approx(p.range_m, rel=1e-12)
            assert back.azimuth == pytest.approx(p.azimuth, rel=1e-12, abs=1e-12)
            assert back.elevation == pytest.approx(p.elevation, rel=1e-12, abs=1e-12)

    def test_round_trip_from_cartesian(self):
        rng = np.random.default_rng(103)
        for _ in range(2000):
            v = rng.uniform(-1e6, 1e6, 3)
            back = coords.spherical_to_cartesian(coords.cartesian_to_spherical(v))
            np.testing.assert_allclose(back, v, rtol=1e-12,
                                       atol=1e-12 * np.linalg.norm(v))


class TestFaceFrame:
    def test_identity_at_zero(self):
        np.testing.assert_allclose(coords.enu_to_face(0.0, 0.0), np.eye(3), atol=1e-15)

    def test_quarter_turn_yaw(self):
        np.testing.assert_allclose(
            coords.enu_to_face(math.pi / 2, 0.0),
            [[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 1.0]], atol=1e-15)

    def test_orthogonal_and_transpose(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            psi, theta = rng.uniform(-np.pi, np.pi, 2)
            r = coords.enu_to_face(psi, theta)
            assert_rotation(r)
            np.testing.assert_allclose(coords.face_to_enu(psi, theta), r.T)
            np.testing.assert_allclose(r @ coords.face_to_enu(psi, theta),
                                       np.eye(3), atol=1e-15)


class TestEciEnu:
    def test_equator_prime_meridian(self):
        r = coords.eci_to_enu(coords.GeodeticSite(0.0, 0.0))
        np.testing.assert_allclose(
            r, [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]], atol=1e-15)

    def test_quarter_longitude_first_row(self):
        r = coords.eci_to_enu(coords.GeodeticSite(math.pi / 2, 0.0))
        np.testing.assert_allclose(r[0], [-1.0, 0.0, 0.0], atol=1e-15)

    def test_orthogonality_random_sites(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            site = coords.GeodeticSite(rng.uniform(-np.pi, np.pi),
                                       rng.uniform(-np.pi / 2, np.pi / 2))
            assert_rotation(coords.eci_to_enu(site))


def site_origin_eci(site, earth=coords.WGS84):
    # a site's ENU origin in ECI: the ellipsoid surface point at the site
    return coords.enu_position_to_eci(np.zeros(3), site, earth)


class TestSitePosition:
    def test_sphere_equator(self):
        earth = coords.EarthModel(6378137.0, 0.0)
        np.testing.assert_allclose(
            site_origin_eci(coords.GeodeticSite(0.0, 0.0), earth), [6378137.0, 0.0, 0.0])

    def test_sphere_pole(self):
        earth = coords.EarthModel(6378137.0, 0.0)
        np.testing.assert_allclose(
            site_origin_eci(coords.GeodeticSite(0.3, math.pi / 2), earth),
            [0.0, 0.0, 6378137.0], atol=1e-8)

    @pytest.mark.parametrize("radius", [math.nan, math.inf])
    def test_nonfinite_earth_radius_rejected(self, radius):
        with pytest.raises(ValueError, match="finite"):
            coords.EarthModel(radius, 0.0)

    @pytest.mark.parametrize("longitude", [math.nan, math.inf])
    def test_nonfinite_longitude_rejected(self, longitude):
        with pytest.raises(ValueError, match="finite"):
            coords.GeodeticSite(longitude, 0.0)

    def test_ellipsoid_frozen_value(self):
        # frozen from a 50-digit evaluation of the surface-point formula
        earth = coords.EarthModel(6378137.0, 0.08)
        pos = site_origin_eci(coords.GeodeticSite(0.0, math.pi / 4), earth)
        np.testing.assert_allclose(
            pos, [4517257.3271194797859, 0.0, 4488346.8802259151153],
            rtol=1e-12, atol=1e-6)


class TestInterSite:
    def rng_sites(self, rng):
        return (coords.GeodeticSite(rng.uniform(-np.pi, np.pi),
                                    rng.uniform(-np.pi / 2, np.pi / 2)),
                coords.GeodeticSite(rng.uniform(-np.pi, np.pi),
                                    rng.uniform(-np.pi / 2, np.pi / 2)))

    def test_same_site_identity(self):
        site = coords.GeodeticSite(0.4, -0.7)
        np.testing.assert_allclose(coords.enu1_to_enu2(site, site), np.eye(3),
                                   atol=1e-15)
        np.testing.assert_allclose(
            coords.enu1_position_to_enu2(np.zeros(3), site, site), np.zeros(3))

    def test_quarter_longitude_entry(self):
        s1 = coords.GeodeticSite(0.0, 0.0)
        s2 = coords.GeodeticSite(math.pi / 2, 0.0)
        assert coords.enu1_to_enu2(s1, s2)[0, 0] == pytest.approx(0.0, abs=1e-15)

    def test_composition_through_eci(self):
        rng = np.random.default_rng(23)
        for _ in range(300):
            s1, s2 = self.rng_sites(rng)
            direct = coords.enu1_to_enu2(s1, s2)
            chain = oracles.enu_rotation_chain(s1, s2)
            np.testing.assert_allclose(direct, chain, atol=1e-12)
            assert_rotation(direct)
            np.testing.assert_allclose(coords.enu1_to_enu2(s2, s1), direct.T,
                                       atol=1e-15)

    def test_translation_antisymmetry(self):
        # the baseline seen from either site is one ECI vector, reversed
        rng = np.random.default_rng(29)
        s1, s2 = self.rng_sites(rng)
        fwd = coords.enu_to_eci(s1) @ np.asarray(
            coords.enu1_position_to_enu2(np.zeros(3), s2, s1), dtype=float)
        back = coords.enu_to_eci(s2) @ np.asarray(
            coords.enu1_position_to_enu2(np.zeros(3), s1, s2), dtype=float)
        np.testing.assert_allclose(back, -fwd, rtol=1e-12, atol=1e-6)
        np.testing.assert_allclose(fwd, np.asarray(site_origin_eci(s2) - site_origin_eci(s1),
                                                   dtype=float), rtol=1e-12, atol=1e-6)

    def test_position_round_trip(self):
        rng = np.random.default_rng(31)
        for _ in range(1000):
            s1, s2 = self.rng_sites(rng)
            p1 = rng.uniform(-1e7, 1e7, 3)
            p2 = coords.enu1_position_to_enu2(p1, s1, s2)
            back = coords.enu2_position_to_enu1(p2, s1, s2)
            assert float(np.abs(np.asarray(back, dtype=float) - p1).max()) < 1e-9

    def test_velocity_is_rotation_alone(self):
        rng = np.random.default_rng(37)
        s1, s2 = self.rng_sites(rng)
        v = rng.uniform(-1e3, 1e3, 3)
        out = coords.enu1_velocity_to_enu2(v, s1, s2)
        np.testing.assert_allclose(np.asarray(out, dtype=float),
                                   coords.enu1_to_enu2(s1, s2) @ v, atol=1e-9)
        assert float(np.linalg.norm(np.asarray(out, dtype=float))) == pytest.approx(
            float(np.linalg.norm(v)), rel=1e-12)
        back = coords.enu1_velocity_to_enu2(out, s2, s1)
        np.testing.assert_allclose(np.asarray(back, dtype=float), v, atol=1e-9)

    def test_eci_position_round_trip(self):
        rng = np.random.default_rng(41)
        site = coords.GeodeticSite(1.1, 0.6)
        p_enu = rng.uniform(-1e6, 1e6, 3)
        p_eci = coords.enu_position_to_eci(p_enu, site)
        back = coords.eci_position_to_enu(p_eci, site)
        assert float(np.abs(np.asarray(back, dtype=float) - p_enu).max()) < 1e-9


class TestSiteFrameCache:
    """A site's long-double WGS-84 frame is computed once per site object and kept on it."""

    @staticmethod
    def transforms(s1, s2, p, earth=coords.WGS84):
        return [coords.enu1_position_to_enu2(p, s1, s2, earth),
                coords.enu2_position_to_enu1(p, s1, s2, earth),
                coords.enu1_velocity_to_enu2(p, s1, s2),
                coords.enu1_velocity_to_enu2(p, s2, s1),
                coords.enu_position_to_eci(p, s1, earth),
                coords.eci_position_to_enu(p, s2, earth)]

    @staticmethod
    def fresh(site):
        return coords.GeodeticSite(site.longitude, site.latitude)

    def test_cached_and_fresh_bit_identical(self):
        rng = np.random.default_rng(43)
        sites = [coords.GeodeticSite(rng.uniform(-np.pi, np.pi), rng.uniform(-1.5, 1.5))
                 for _ in range(40)]
        for _ in range(500):
            i, j = rng.integers(len(sites), size=2)
            s1, s2 = sites[i], sites[j]
            p = rng.uniform(-1e7, 1e7, 3)
            cached = self.transforms(s1, s2, p)
            for got, want in zip(cached, self.transforms(self.fresh(s1), self.fresh(s2), p)):
                assert got.dtype == np.longdouble
                assert np.array_equal(got, want)

    def test_frames_are_read_only(self):
        site = coords.GeodeticSite(0.3, -0.4)
        rotation, origin = coords._site_frame_ld(site, coords.WGS84)
        for array in (rotation, origin, rotation.T):
            with pytest.raises(ValueError):
                array[0] = 0.0
        # results are the caller's to change and do not alias the frames
        out = coords.enu_position_to_eci(np.zeros(3), site)
        out[0] = 0.0
        assert coords.enu_position_to_eci(np.zeros(3), site)[0] == origin[0] != 0.0

    def test_earth_model_switch(self):
        custom = coords.EarthModel(6.4e6, 0.05)
        s1, s2 = coords.GeodeticSite(0.1, 0.7), coords.GeodeticSite(-0.4, 0.2)
        p = np.array([5e4, 1e4, 0.0])
        results = {}
        for earth in (coords.WGS84, custom, coords.WGS84, custom):
            got = self.transforms(s1, s2, p, earth)
            want = self.transforms(self.fresh(s1), self.fresh(s2), p, earth)
            assert all(np.array_equal(g, w) for g, w in zip(got, want))
            results.setdefault(earth, got)
        assert not np.array_equal(results[coords.WGS84][0], results[custom][0])
        # an equal earth model reuses the frames computed for WGS84
        frames = coords._site_frame_ld(s1, coords.WGS84)
        again = coords._site_frame_ld(s1, coords.EarthModel())
        assert all(a is b for a, b in zip(frames, again))

    def test_velocity_keeps_any_earth_models_frame(self):
        # the rotation does not depend on the earth model: a velocity transform
        # between sites that hold another earth model's frames gives the bits
        # of one between new sites, and positions are unchanged after it
        custom = coords.EarthModel(6.4e6, 0.05)
        s1, s2 = coords.GeodeticSite(0.1, 0.7), coords.GeodeticSite(-0.4, 0.2)
        p = np.array([5e4, 1e4, 0.0])
        position = coords.enu1_position_to_enu2(p, s1, s2, custom)
        velocity = coords.enu1_velocity_to_enu2(p, s1, s2)
        back = coords.enu1_velocity_to_enu2(p, s2, s1)
        f1, f2 = self.fresh(s1), self.fresh(s2)
        assert np.array_equal(velocity, coords.enu1_velocity_to_enu2(p, f1, f2))
        assert np.array_equal(back, coords.enu1_velocity_to_enu2(p, f2, f1))
        assert np.array_equal(position, coords.enu1_position_to_enu2(p, s1, s2, custom))

    def test_other_earth_models_leave_the_kept_frame(self):
        # a custom-earth frame is computed per call and replaces nothing, so
        # the velocity transform after it reads the frame kept before it
        custom = coords.EarthModel(6.4e6, 0.05)
        s1, s2 = coords.GeodeticSite(0.1, 0.7), coords.GeodeticSite(-0.4, 0.2)
        kept = coords._site_frame_ld(s1, coords.WGS84)
        p = np.array([5e4, 1e4, 0.0])
        coords.enu1_position_to_enu2(p, s1, s2, custom)
        coords.enu1_velocity_to_enu2(p, s1, s2)
        assert all(a is b for a, b in zip(kept, coords._site_frame_ld(s1, coords.WGS84)))

    def test_site_value_semantics_unchanged(self):
        used, never = coords.GeodeticSite(0.25, -0.5), coords.GeodeticSite(0.25, -0.5)
        coords.enu1_position_to_enu2(np.ones(3), used, coords.GeodeticSite(0.3, -0.5))
        assert used == never and hash(used) == hash(never) and repr(used) == repr(never)
        assert dataclasses.asdict(used) == dataclasses.asdict(never)
        assert dataclasses.replace(used) == never
        assert dataclasses.replace(used, latitude=0.1) == coords.GeodeticSite(0.25, 0.1)
        assert pickle.dumps(used) == pickle.dumps(never)
        for clone in (pickle.loads(pickle.dumps(used)), copy.copy(used), copy.deepcopy(used)):
            assert clone == never
            assert np.array_equal(coords.enu_position_to_eci(np.ones(3), clone),
                                  coords.enu_position_to_eci(np.ones(3), never))


class TestValidation:
    def test_latitude_range(self):
        with pytest.raises(ValueError):
            coords.GeodeticSite(0.0, 2.0)

    def test_earth_model_bounds(self):
        with pytest.raises(ValueError):
            coords.EarthModel(eccentricity=1.0)
        with pytest.raises(ValueError):
            coords.EarthModel(equatorial_radius_m=0.0)
