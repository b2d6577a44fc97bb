import json

import numpy as np
import pytest

from statlen import ValidationError, random_distribution, random_state
from statlen import serialize


class TestStateRoundtrip:
    def test_classical_roundtrip(self, tmp_path):
        p = random_distribution(5, 3)
        target = tmp_path / "p.json"
        target.write_text(json.dumps(serialize.state_to_jsonable(p)))
        loaded = serialize.load_state(target)
        assert np.allclose(loaded.array, p.array, atol=1e-15)

    def test_quantum_roundtrip(self, tmp_path):
        rho = random_state(3, 2, 4)
        target = tmp_path / "rho.json"
        target.write_text(json.dumps(serialize.state_to_jsonable(rho)))
        loaded = serialize.load_state(target)
        assert np.allclose(loaded.array, rho.array, atol=1e-15)

    def test_jsonable_shapes(self):
        rho = random_state(2, 2, 1)
        obj = serialize.state_to_jsonable(rho)
        assert obj["kind"] == "quantum"
        assert len(obj["matrix"]) == 2
        assert len(obj["matrix"][0][0]) == 2  # [re, im] pairs
        with pytest.raises(ValidationError, match="cannot serialize"):
            serialize.state_to_jsonable(rho.array)

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValidationError):
            serialize.state_from_jsonable(
                {"kind": "classical", "weights": [1.0], "note": "x"}
            )
        with pytest.raises(ValidationError):
            serialize.state_from_jsonable({"weights": [1.0]})
        with pytest.raises(ValidationError):
            serialize.state_from_jsonable({"kind": "mystery"})

    @pytest.mark.parametrize("kind, field", [("classical", "weights"), ("quantum", "matrix")])
    def test_missing_array_field_is_named(self, kind, field):
        with pytest.raises(ValidationError, match=f"{kind} state is missing its '{field}' field"):
            serialize.state_from_jsonable({"kind": kind})

    def test_malformed_matrix_rejected(self):
        with pytest.raises(ValidationError):
            serialize.state_from_jsonable({"kind": "quantum", "matrix": [[1.0, 0.0]]})

    @pytest.mark.parametrize("bad", ["0.5", True, None, float("inf"), [0.5]])
    def test_weights_must_be_finite_numbers(self, bad):
        with pytest.raises(ValidationError, match="weights must be a finite number"):
            serialize.state_from_jsonable({"kind": "classical", "weights": [bad, 0.5]})

    def test_weights_must_be_a_list(self):
        with pytest.raises(ValidationError, match="weights must be a list"):
            serialize.state_from_jsonable({"kind": "classical", "weights": "0.5"})

    @pytest.mark.parametrize("bad", ["1", True, None, float("nan")])
    def test_matrix_entries_must_be_finite_numbers(self, bad):
        rows = [[[1.0, 0.0], [0.0, bad]], [[0.0, 0.0], [0.0, 0.0]]]
        with pytest.raises(ValidationError, match="perturbation entry must be a finite number"):
            serialize.matrix_from_jsonable(rows, "perturbation")

    def test_integer_entries_accepted(self):
        p = serialize.state_from_jsonable({"kind": "classical", "weights": [1, 0]})
        assert p.array.tolist() == [1.0, 0.0]
        rho = serialize.state_from_jsonable(
            {"kind": "quantum", "matrix": [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]}
        )
        assert rho.array[0, 0] == 1.0


class TestCsvOutput:
    def test_formatting_and_line_endings(self, tmp_path):
        target = tmp_path / "t.csv"
        serialize.write_records(
            (target, "csv", {"tool": "statlen"}, ("a", "b"), [(1, 1.0 / 3.0), (2, float("inf"))], None)
        )
        raw = target.read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")
        text = raw.decode()
        assert text.splitlines()[0] == "# tool=statlen"
        assert "0.333333333333" in text  # 12 significant digits
        assert "inf" in text


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_a_nan_is_refused_before_any_file_opens(tmp_path, fmt):
    first, second = tmp_path / "first", tmp_path / "second"
    second.write_text("kept\n")
    records = [(first, "csv", {"tool": "statlen"}, ("a",), [(1.0,)], None),
               (second, fmt, {"tool": "statlen"}, ("a",), [(float("nan"),)], {"a": [float("nan")]})]
    with pytest.raises(ValidationError, match="NaN|not strict JSON"):
        serialize.write_records(*records)
    assert not first.exists()
    assert second.read_text() == "kept\n"

