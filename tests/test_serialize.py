import json

import numpy as np
import pytest

import povmkit as pk
from povmkit import serialize as ser
from povmkit.errors import SchemaError
from povmkit.outcomes import CIRCLE, SPHERE, FiniteLabels, Region


class TestPovmRoundtrip:
    @pytest.mark.parametrize("factory", [
        lambda: pk.projective_basis_povm(3),
        lambda: pk.coin_flip_povm(),
        lambda: pk.sic_tetrahedron_povm(),
        lambda: pk.stern_gerlach_scheme().member(np.array([0.6, 0.0, 0.8])),
    ])
    def test_bytes_stable(self, factory, tmp_path):
        p = factory()
        path = tmp_path / "povm.json"
        ser.save_povm(path, p)
        loaded = ser.load_povm(path)
        path2 = tmp_path / "again.json"
        ser.save_povm(path2, loaded)
        assert path.read_bytes() == path2.read_bytes()
        for a, b in zip(p.elements, loaded.elements):
            assert np.allclose(a, b)

    def test_sphere_point_normalized_on_load(self, tmp_path):
        p = pk.sic_tetrahedron_povm()
        data = ser.povm_to_dict(p)
        data["entries"][0]["point"] = [v * (1 + 5e-7) for v in data["entries"][0]["point"]]
        loaded = ser.povm_from_dict(data)
        assert np.isclose(np.linalg.norm(loaded.points[0]), 1.0)

    def test_sphere_point_bad_norm_rejected(self):
        p = pk.sic_tetrahedron_povm()
        data = ser.povm_to_dict(p)
        data["entries"][0]["point"] = [1.0, 0.0, 0.01]
        with pytest.raises(SchemaError):
            ser.povm_from_dict(data)

    def test_bad_schema_version(self):
        data = ser.povm_to_dict(pk.coin_flip_povm())
        data["schema"] = 2
        with pytest.raises(SchemaError):
            ser.povm_from_dict(data)

    def test_bad_complex_pair(self):
        data = ser.povm_to_dict(pk.coin_flip_povm())
        data["entries"][0]["element"][0][0] = 1.0
        with pytest.raises(SchemaError):
            ser.povm_from_dict(data)

    def test_missing_fields(self):
        with pytest.raises(SchemaError):
            ser.povm_from_dict({"schema": 1, "dim": 2})


class TestRegions:
    def test_roundtrip_each_kind(self):
        regions = [
            Region.of_labels(FiniteLabels(4), [1, 3]),
            Region.of_arcs([(0.5, 2.0), (5.0, 7.0)]),
            Region.of_caps([((0, 0, 1.0), 0.7)], complement=True),
        ]
        for r in regions:
            back = ser.region_from_dict(ser.region_to_dict(r))
            assert back == r

    def test_regions_file(self, tmp_path):
        path = tmp_path / "regions.json"
        payload = {
            "schema": 1,
            "regions": [
                {"id": "upper", "space": {"kind": "sphere"},
                 "caps": [{"axis": [0, 0, 1], "angle": np.pi / 2}]},
                {"space": {"kind": "sphere"},
                 "caps": [{"axis": [0, 0, 1], "angle": 1.0}], "complement": True},
            ],
        }
        path.write_text(json.dumps(payload))
        loaded = ser.load_regions(path)
        assert loaded[0][0] == "upper"
        assert loaded[1][0] == "region1"
        assert loaded[1][1].complement


class TestStates:
    def test_single_and_list(self, tmp_path):
        single = tmp_path / "one.json"
        single.write_text(json.dumps({"schema": 1, "matrix": [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]}))
        states = ser.load_states(single)
        assert len(states) == 1 and states[0][0] == "state0"

        multi = tmp_path / "many.json"
        ser.save_states(multi, [("up", np.diag([1.0, 0.0])), ("mixed", np.eye(2) / 2)])
        loaded = ser.load_states(multi)
        assert [sid for sid, _ in loaded] == ["up", "mixed"]

    def test_invalid(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(SchemaError):
            ser.load_states(bad)
        empty = tmp_path / "empty.json"
        empty.write_text(json.dumps({"schema": 1}))
        with pytest.raises(SchemaError):
            ser.load_states(empty)


class TestRecords:
    def test_sphere_roundtrip(self, tmp_path, up):
        recs = pk.sample_two_stage(pk.stern_gerlach_scheme(), up, 50, seed=1)
        path = tmp_path / "r.ndjson"
        ser.write_records(path, recs)
        back = ser.read_records(path)
        assert back.space == SPHERE
        assert np.allclose(back.omega, recs.omega)
        assert np.array_equal(back.i, recs.i)
        assert np.allclose(back.x, recs.x)

    def test_circle_roundtrip(self, tmp_path, plus):
        recs = pk.sample_direct(pk.phase_povm(2), plus, 50, seed=2)
        path = tmp_path / "r.ndjson"
        ser.write_records(path, recs)
        back = ser.read_records(path)
        assert back.space == CIRCLE
        assert back.i is None and back.x is None
        assert np.allclose(back.omega, recs.omega)

    def test_direct_records_omit_optional_keys(self, tmp_path, up):
        recs = pk.sample_direct(pk.spin_direction_povm(), up, 3, seed=3)
        lines = list(ser.records_to_lines(recs))
        for line in lines:
            row = json.loads(line)
            assert set(row) == {"omega"}

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "r.ndjson"
        path.write_text('{"omega": 0.5}\nnot json\n')
        with pytest.raises(SchemaError):
            ser.read_records(path)


class TestDecomposition:
    def test_roundtrip(self, tmp_path):
        res = pk.decompose_extremal(pk.coin_flip_povm())
        data = ser.decomposition_to_dict(res)
        back = ser.decomposition_from_dict(data)
        assert back.depth == res.depth
        assert np.allclose(back.weights, res.weights)
        for (w1, p1), (w2, p2) in zip(res.terms, back.terms):
            for a, b in zip(p1.elements, p2.elements):
                assert np.allclose(a, b)


class TestNamedFamilies:
    """The family names the CLI and the records speak, in `named_family`."""

    def test_continuous_roundtrip(self):
        for name in ("spin", "spin_direction", "stern_gerlach"):
            c, _ = pk.named_family(name)
            assert isinstance(c, pk.SpinDirectionPOVM)
            assert isinstance(pk.named_family(c.family)[0], pk.SpinDirectionPOVM)
        ph, _ = pk.named_family("phase:3")
        assert isinstance(ph, pk.CirclePhasePOVM)
        assert ph.dim == 3

    def test_scheme_roundtrip(self):
        for name in ("spin", "spin_direction", "stern_gerlach"):
            _, s = pk.named_family(name)
            assert isinstance(s, pk.SternGerlachScheme)
            assert isinstance(pk.named_family(s.family)[1], pk.SternGerlachScheme)
        _, scheme = pk.named_family("phase:4")
        assert isinstance(scheme, pk.PhaseShiftScheme)
        assert scheme.dim == 4

    def test_unknown_rejected(self):
        for name in ("phase", "phase:x", "banana", "spin:2"):
            with pytest.raises(SchemaError):
                pk.named_family(name)


def test_canonical_dumps_sorted():
    s = ser.dumps_canonical({"b": 1, "a": [1.5, 2]})
    assert s == '{"a":[1.5,2],"b":1}'
