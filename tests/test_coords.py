import math

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


class TestSitePosition:
    def test_sphere_equator(self):
        earth = coords.EarthModel(6378137.0, 0.0)
        np.testing.assert_allclose(
            coords.site_position_eci(coords.GeodeticSite(0.0, 0.0), earth),
            [6378137.0, 0.0, 0.0])

    def test_sphere_pole(self):
        earth = coords.EarthModel(6378137.0, 0.0)
        np.testing.assert_allclose(
            coords.site_position_eci(coords.GeodeticSite(0.3, math.pi / 2), earth),
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
        pos = coords.site_position_eci(coords.GeodeticSite(0.0, math.pi / 4), earth)
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
            coords.inter_site_translation_eci(site, site), np.zeros(3))

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
            np.testing.assert_allclose(coords.enu2_to_enu1(s1, s2), direct.T)
            np.testing.assert_allclose(coords.enu1_to_enu2(s2, s1), direct.T,
                                       atol=1e-15)

    def test_translation_antisymmetry(self):
        rng = np.random.default_rng(29)
        s1, s2 = self.rng_sites(rng)
        fwd = coords.inter_site_translation_eci(s1, s2)
        np.testing.assert_allclose(coords.inter_site_translation_eci(s2, s1), -fwd)

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
        back = coords.enu2_velocity_to_enu1(out, s1, s2)
        np.testing.assert_allclose(np.asarray(back, dtype=float), v, atol=1e-9)

    def test_eci_position_round_trip(self):
        rng = np.random.default_rng(41)
        site = coords.GeodeticSite(1.1, 0.6)
        p_enu = rng.uniform(-1e6, 1e6, 3)
        p_eci = coords.enu_position_to_eci(p_enu, site)
        back = coords.eci_position_to_enu(p_eci, site)
        assert float(np.abs(np.asarray(back, dtype=float) - p_enu).max()) < 1e-9


class TestValidation:
    def test_latitude_range(self):
        with pytest.raises(ValueError):
            coords.GeodeticSite(0.0, 2.0)

    def test_earth_model_bounds(self):
        with pytest.raises(ValueError):
            coords.EarthModel(eccentricity=1.0)
        with pytest.raises(ValueError):
            coords.EarthModel(equatorial_radius_m=0.0)
