import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import povmkit as pk
from povmkit import serialize as ser
from povmkit.errors import SchemaError
from povmkit.outcomes import CIRCLE, SPHERE, FiniteLabels, Region
from povmkit.sampling import OutcomeRecords


class TestPovmRoundtrip:
    @pytest.mark.parametrize("factory", [
        lambda: pk.projective_basis_povm(3),
        lambda: pk.coin_flip_povm(),
        lambda: pk.sic_tetrahedron_povm(),
        lambda: pk.stern_gerlach_scheme().member(np.array([0.0, 0.8, 0.0])),
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

    @pytest.mark.parametrize("flag", ["no", "false", 0, 1, None])
    def test_allow_duplicates_must_be_a_json_boolean(self, flag):
        data = ser.povm_to_dict(pk.coin_flip_povm())
        data["allow_duplicates"] = flag
        with pytest.raises(SchemaError, match="'allow_duplicates' must be true or false"):
            ser.povm_from_dict(data)

    @pytest.mark.parametrize("flag", [False, True])
    def test_allow_duplicates_reads_json_booleans(self, flag):
        data = ser.povm_to_dict(pk.coin_flip_povm())
        data["allow_duplicates"] = flag
        assert ser.povm_from_dict(data).allow_duplicates is flag
        del data["allow_duplicates"]
        assert ser.povm_from_dict(data).allow_duplicates is False

    @pytest.mark.parametrize("count", [{"n": 2.7}, {"n": 2.0}, {"n": "2"}, {"n": True},
                                       {"n": 0}, {"n": -1}, {"n": None}, {}])
    def test_label_count_must_be_a_positive_json_integer(self, count):
        # int() would truncate 2.7 to 2
        with pytest.raises(SchemaError, match="positive integer 'n'"):
            ser.space_from_dict({"kind": "labels", **count})


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

    @pytest.mark.parametrize("flag", ["false", "true", 0, 1, None])
    def test_complement_must_be_a_json_boolean(self, flag):
        # bool() would read the string "false" as true
        data = {"space": {"kind": "sphere"}, "caps": [{"axis": [0, 0, 1], "angle": 0.5}],
                "complement": flag}
        with pytest.raises(SchemaError, match="'complement' must be true or false"):
            ser.region_from_dict(data)

    @pytest.mark.parametrize("label", [1.7, 1.0, "1", True])
    def test_label_must_be_a_json_integer(self, label):
        # int() would read 1.7 as the label 1
        data = {"space": {"kind": "labels", "n": 3}, "labels": [0, label]}
        with pytest.raises(SchemaError, match="label must be a JSON integer"):
            ser.region_from_dict(data)

    @pytest.mark.parametrize("space, point", [
        (FiniteLabels(3), 1.7), (FiniteLabels(3), "1"), (FiniteLabels(3), False),
        (CIRCLE, "0.5"), (CIRCLE, True), (CIRCLE, None),
        (SPHERE, ["0", "0", "1"]), (SPHERE, [0, 0, True]), (SPHERE, "001"),
    ])
    def test_point_types_are_not_coerced(self, space, point):
        with pytest.raises(SchemaError, match="point"):
            ser.point_from_json(space, point)

    @pytest.mark.parametrize("arc", [[float("nan"), 1.0], [0.0, float("inf")]])
    def test_non_finite_arc_is_schema_error(self, arc):
        with pytest.raises(SchemaError, match="finite"):
            ser.region_from_dict({"space": {"kind": "circle"}, "arcs": [arc]})

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


UP = [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]
SPHERE_REGION = {"space": {"kind": "sphere"}, "caps": [{"axis": [0, 0, 1], "angle": 1.0}]}


def load_items(tmp_path, key, items):
    """Load ``items`` as a states or regions file."""
    path = tmp_path / f"{key}.json"
    path.write_text(json.dumps({"schema": 1, key: items}))
    return ser.load_states(path) if key == "states" else ser.load_regions(path)


class TestIds:
    """A row id is a JSON string, unique within its file."""

    @pytest.mark.parametrize("key, item", [("states", {"matrix": UP}), ("regions", SPHERE_REGION)])
    @pytest.mark.parametrize("rid", [None, {"a": 1}, 7, 1.5, True, ["a"]])
    def test_id_must_be_a_json_string(self, tmp_path, key, item, rid):
        with pytest.raises(SchemaError, match="'id' must be a JSON string"):
            load_items(tmp_path, key, [{**item, "id": "first"}, {**item, "id": rid}])

    @pytest.mark.parametrize("key, item", [("states", {"matrix": UP}), ("regions", SPHERE_REGION)])
    @pytest.mark.parametrize("ids", [["a", "b", "a"], [None, "b", "{}0"]])
    def test_repeated_id_rejected(self, tmp_path, key, item, ids):
        # the second file repeats the default id of its first row
        prefix = key[:-1]
        items = [item if i is None else {**item, "id": i.format(prefix)} for i in ids]
        with pytest.raises(SchemaError, match=f"{prefix} 2: id '.*' repeats {prefix} 0"):
            load_items(tmp_path, key, items)

    @pytest.mark.parametrize("key, item", [("states", {"matrix": UP}), ("regions", SPHERE_REGION)])
    def test_ids_and_defaults(self, tmp_path, key, item):
        loaded = load_items(tmp_path, key, [{**item, "id": ""}, item, {**item, "id": "z"}])
        assert [rid for rid, _ in loaded] == ["", f"{key[:-1]}1", "z"]


class TestRecords:
    def test_sphere_roundtrip(self, tmp_path, up):
        recs = pk.sample_two_stage(pk.stern_gerlach_scheme(), up, 50, seed=1)
        path = tmp_path / "r.ndjson"
        ser.write_records(path, recs)
        back = ser.read_records(path)
        assert back.space == SPHERE
        assert np.array_equal(back.omega, recs.omega)
        assert np.array_equal(back.i, recs.i)
        assert np.array_equal(back.x, recs.x)

    def test_circle_roundtrip(self, tmp_path, plus):
        recs = pk.sample_direct(pk.phase_povm(2), plus, 50, seed=2)
        path = tmp_path / "r.ndjson"
        ser.write_records(path, recs)
        back = ser.read_records(path)
        assert back.space == CIRCLE
        assert back.i is None and back.x is None
        assert np.array_equal(back.omega, recs.omega)

    def test_direct_records_omit_optional_keys(self, tmp_path, up):
        recs = pk.sample_direct(pk.spin_direction_povm(), up, 3, seed=3)
        lines = list(ser.records_to_lines(recs))
        for line in lines:
            row = json.loads(line)
            assert set(row) == {"omega"}

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "r.ndjson"
        for bad_line in (2, 5000):  # in the first chunk of lines and past it
            lines = ['{"omega": 0.5}'] * 6000
            lines[bad_line - 1] = "not json"
            lines[3] = ""
            path.write_text("\n".join(lines) + "\n")
            with pytest.raises(SchemaError, match=f":{bad_line}: invalid JSON"):
                ser.read_records(path)

    def test_oversized_integer_names_line(self, tmp_path):
        # json.loads refuses integers of more than 4300 digits with a
        # ValueError that is no JSONDecodeError
        path = tmp_path / "r.ndjson"
        path.write_text('{"omega":1}\n{"omega":2}\n{"omega":1' + "0" * 5000 + "}\n")
        with pytest.raises(SchemaError, match=r"r\.ndjson:3: integer of more than 4300 digits"):
            ser.read_records(path)

    def test_roundtrip_across_chunks(self, tmp_path):
        recs = pk.sample_two_stage(pk.phase_scheme(3), np.eye(3) / 3, 4097, seed=5)
        path = tmp_path / "r.ndjson"
        ser.write_records(path, recs)
        assert path.read_text().count("\n") == 4097
        back = ser.read_records(path)
        for name in ("omega", "i", "x"):
            assert np.array_equal(getattr(back, name), getattr(recs, name))

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "r.ndjson"
        path.write_text('\n{"omega": 0.5}\n  \n' + "\n" * 5000 + '{"omega": 1.5}\n\n')
        back = ser.read_records(path)
        assert back.space == CIRCLE
        assert np.array_equal(back.omega, [0.5, 1.5])
        path.write_text('\n{"omega": 0.5}\n  \n' + "\n" * 5000 + '{"omega": "1"}\n')
        with pytest.raises(SchemaError, match=":5004: 'omega' must be a number"):
            ser.read_records(path)

    @pytest.mark.parametrize("text, line", [
        # a label that is not an integer is not truncated
        ('{"omega":1}\n{"omega":2.7}\n', 2),
        ('{"omega":1}\n{"omega":true}\n', 2),
        ('{"omega":1}\n{"omega":100000000000000000000000}\n', 2),
        # every record carries the optional fields of the first, and no others
        ('{"i":0,"omega":0.5}\n{"omega":0.7}\n', 2),
        ('{"omega":0.5,"x":1.0}\n\n{"omega":0.7}\n', 3),
        ('{"omega":0.5}\n{"omega":0.7}\n{"i":1,"omega":0.7}\n', 3),
        ('{"omega":0.5}\n{"omega":0.7,"x":0.1}\n', 2),
        # one outcome space per file; sphere points have 3 coordinates
        ('{"omega":[0.0,0.0,1.0]}\n{"omega":0.5}\n', 2),
        ('{"omega":0.5}\n{"omega":[0.0,0.0,1.0]}\n', 2),
        ('{"omega":[0.0,0.0,1.0]}\n{"omega":[0.0,1.0]}\n', 2),
        ('{"omega":[0.0,1.0]}\n', 1),
        ('{"omega":"0.5"}\n', 1),
        ('{"omega":0.5}\n[0.5]\n', 2),
        ('{"omega":0.5}\n{"omega":NaN}\n', 2),
        ('{"omega":0.5,"x":[0.0,1.0]}\n{"omega":0.5,"x":[0.0]}\n', 2),
        ('{"i":0.5,"omega":0.5}\n', 1),
        # valid JSON once the lines are joined, but not line by line
        ('{"omega":0.5},{"omega":0.6}\n', 1),
        ('{"omega":0.5}\n{"omega":[0.0\n1.0,0.0]}\n', 2),
        ('{"omega":[0.0,0.0,1.0]},{"omega":[0.0\n0.0,1.0]}\n', 1),
        # records hold the fields write_records writes, and no others
        ('{"foo":1,"omega":0.5}\n', 1),
        ('{"omega":0.5}\n{"foo":1,"omega":0.5}\n', 2),
        # the first offending line, whatever its fault and the faults after it
        ('{"omega":0.5}\n{"omega":"a"}\nnot json\n', 2),
        ('{"omega":0.5,"x":1.0}\n{"omega":0.6,"x":"s"}\n{"x":1.0}\n', 2),
        ('{"omega":0.5}\n{"omega":NaN}\n[1]\n', 2),
    ])
    def test_malformed_records_rejected(self, tmp_path, text, line):
        path = tmp_path / "r.ndjson"
        path.write_text(text)
        with pytest.raises(SchemaError, match=f"r.ndjson:{line}: "):
            ser.read_records(path)

    @pytest.mark.parametrize("column", ["omega", "x"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_not_written(self, tmp_path, column, value):
        recs = pk.sample_two_stage(pk.phase_scheme(2), np.eye(2) / 2, 5, seed=1)
        getattr(recs, column)[3] = value
        path = tmp_path / "r.ndjson"
        with pytest.raises(SchemaError, match=repr(column)):
            ser.write_records(path, recs)
        assert not path.exists()

    SPHERE_OMEGA = [[-0.0, 5e-324, 1e308], [2.0**40, -1.5, 0.1], [1.0, 0.0, -2.5e-10]]
    CIRCLE_OMEGA = [-0.0, 5e-324, 1e308, 2.0**40]
    LABEL_OMEGA = [0, 2**40, 3, 1]

    @pytest.mark.parametrize("omega", [SPHERE_OMEGA, CIRCLE_OMEGA, LABEL_OMEGA],
                             ids=["sphere", "circle", "labels"])
    @pytest.mark.parametrize("with_i", [False, True], ids=["", "i"])
    @pytest.mark.parametrize("x", [None, "scalar", "vector"])
    def test_golden_bytes(self, tmp_path, omega, with_i, x):
        n = len(omega)
        i = [2**40, 0, 7, 3][:n] if with_i else None
        xs = {
            None: None,
            "scalar": [-0.0, 5e-324, 1e308, 2.0**40][:n],
            "vector": [[1e308, -0.0, 5e-324], [0.25, 2.0**40, 3.0], [-1e-300, 1.0, 2.0],
                       [0.0, 0.0, 1.0]][:n],
        }[x]
        recs = OutcomeRecords(
            space=None,
            omega=np.array(omega),
            i=None if i is None else np.array(i),
            x=None if xs is None else np.array(xs),
        )
        # the rule every writer follows: the canonical dump of each row's dict
        rows = []
        for k in range(n):
            row = {"omega": omega[k]}
            if i is not None:
                row["i"] = i[k]
            if xs is not None:
                row["x"] = xs[k]
            rows.append(ser.dumps_canonical(row) + "\n")
        path = tmp_path / "r.ndjson"
        ser.write_records(path, recs)
        assert path.read_text() == "".join(rows)
        back = ser.read_records(path)
        for name in ("omega", "i", "x"):
            written, read = getattr(recs, name), getattr(back, name)
            assert (read is None) == (written is None)
            if written is not None:
                assert read.tobytes() == written.astype(read.dtype).tobytes()

    @given(
        st.sampled_from(["sphere", "circle", "labels"]),
        st.booleans(),
        st.sampled_from([None, 1, 3]),
        st.integers(1, 300),
        st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_property(self, kind, with_i, x_width, n, data):
        finite = st.floats(allow_nan=False, allow_infinity=False)

        def column(elements, width=1):
            shape = (n,) if width == 1 else (n, width)
            return np.array(data.draw(st.lists(elements, min_size=n * width,
                                               max_size=n * width))).reshape(shape)

        omega = {
            "sphere": lambda: column(finite, 3),
            "circle": lambda: column(finite),
            "labels": lambda: column(st.integers(-(2**63), 2**63 - 1)),
        }[kind]()
        recs = OutcomeRecords(
            space=None,
            omega=omega,
            i=column(st.integers(0, 2**63 - 1)) if with_i else None,
            x=None if x_width is None else column(finite, x_width),
        )
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "r.ndjson")
            ser.write_records(path, recs)
            back = ser.read_records(path)
        assert back.space == {"sphere": SPHERE, "circle": CIRCLE, "labels": None}[kind]
        for name in ("omega", "i", "x"):
            written, read = getattr(recs, name), getattr(back, name)
            if written is None:
                assert read is None
            else:
                assert read.dtype == written.dtype
                assert read.tobytes() == written.tobytes()


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

    @pytest.mark.parametrize("term", [
        {"povm": None}, {"weight": 0.5}, {"weight": "half", "povm": None},
        {"weight": [0.5], "povm": None}, {"weight": None, "povm": None},
        {"weight": True, "povm": None}, {"weight": "0.5", "povm": None},
    ])
    def test_malformed_term_is_schema_error(self, term):
        data = ser.decomposition_to_dict(pk.decompose_extremal(pk.coin_flip_povm()))
        povm = data["terms"][0]["povm"]
        data["terms"][0] = {k: povm if k == "povm" else v for k, v in term.items()}
        with pytest.raises(SchemaError, match="term 0"):
            ser.decomposition_from_dict(data)

    @pytest.mark.parametrize("depth", [1.5, "1", True, None])
    def test_depth_must_be_a_json_integer(self, depth):
        data = ser.decomposition_to_dict(pk.decompose_extremal(pk.coin_flip_povm()))
        data["depth"] = depth
        with pytest.raises(SchemaError, match="'depth' must be a JSON integer"):
            ser.decomposition_from_dict(data)


def _json_roundtrip(obj: dict) -> dict:
    return json.loads(ser.dumps_canonical(obj))


def _points(space, n, rng):
    if space == SPHERE:
        v = rng.normal(size=(n, 3))
        return v / np.linalg.norm(v, axis=1, keepdims=True)
    if space == CIRCLE:
        return rng.uniform(0.0, 2 * np.pi, n)
    return range(n)


class TestRoundtripProperties:
    """Loading what was saved gives the same object, and saving it again
    the same bytes."""

    @given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(1, 6),
           st.sampled_from(["labels", "circle", "sphere"]))
    @settings(max_examples=40, deadline=None)
    def test_povm(self, seed, d, extra, kind):
        rng = np.random.default_rng(seed)
        n = max(2, d) + extra - 1
        base = pk.random_povm(rng, d, n)
        space = {"labels": FiniteLabels(n), "circle": CIRCLE, "sphere": SPHERE}[kind]
        p = pk.FinitePOVM(d, space, tuple(zip(_points(space, n, rng), base.elements)))
        data = ser.povm_to_dict(p)
        back = ser.povm_from_dict(_json_roundtrip(data))
        assert ser.povm_to_dict(back) == data
        assert back.space == p.space and back.dim == p.dim
        for a, b in zip(p.entries, back.entries):
            assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    @given(st.integers(0, 2**32 - 1), st.sampled_from(["labels", "arcs", "caps"]),
           st.integers(1, 4), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_region(self, seed, kind, count, complement):
        rng = np.random.default_rng(seed)
        if kind == "labels":
            space = FiniteLabels(8)
            r = Region.of_labels(space, rng.choice(8, size=count, replace=False))
        elif kind == "arcs":
            r = Region.of_arcs(rng.uniform(-7.0, 7.0, size=(count, 2)))
        else:
            axes = _points(SPHERE, count, rng)
            r = Region.of_caps(
                [(tuple(a), float(t)) for a, t in zip(axes, rng.uniform(0, np.pi, count))],
                complement=complement,
            )
        data = ser.region_to_dict(r)
        back = ser.region_from_dict(_json_roundtrip(data))
        assert back == r
        assert ser.region_to_dict(back) == data

    @given(st.integers(0, 2**32 - 1), st.integers(1, 5), st.integers(1, 16))
    @settings(max_examples=40, deadline=None)
    def test_states(self, seed, count, d):
        rng = np.random.default_rng(seed)
        states = [(f"s{k}", pk.random_density_matrix(rng, d)) for k in range(count)]
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "states.json")
            ser.save_states(path, states)
            back = ser.load_states(path)
        assert [sid for sid, _ in back] == [sid for sid, _ in states]
        for (_, a), (_, b) in zip(states, back):
            assert np.array_equal(a, b)

    @given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(1, 3))
    @settings(max_examples=30, deadline=None)
    def test_decomposition(self, seed, terms, d):
        rng = np.random.default_rng(seed)
        weights = rng.dirichlet(np.ones(terms))
        povms = [pk.random_povm(rng, d, d + 1) for _ in range(terms)]
        result = pk.DecompositionResult(terms=tuple(zip(weights, povms)), depth=terms - 1)
        data = ser.decomposition_to_dict(result)
        back = ser.decomposition_from_dict(_json_roundtrip(data))
        assert ser.decomposition_to_dict(back) == data
        assert np.array_equal(back.weights, result.weights)


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
            assert isinstance(s, pk.DesignScheme)
            assert s.family == "spin_direction"
            assert isinstance(s.continuous, pk.SpinDirectionPOVM)
            assert pk.named_family(s.family)[1].family == s.family
        _, scheme = pk.named_family("phase:4")
        assert isinstance(scheme, pk.DesignScheme)
        assert scheme.family == "phase"
        assert isinstance(scheme.continuous, pk.CirclePhasePOVM)
        assert scheme.dim == 4

    def test_unknown_rejected(self):
        for name in ("phase", "phase:x", "banana", "spin:2"):
            with pytest.raises(SchemaError):
                pk.named_family(name)


def test_canonical_dumps_sorted():
    s = ser.dumps_canonical({"b": 1, "a": [1.5, 2]})
    assert s == '{"a":[1.5,2],"b":1}'
