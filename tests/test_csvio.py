import numpy as np
import pytest

from spinchaos.csvio import write_csv


def test_write_csv_pins_the_text_of_every_column_kind(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(
        path,
        {
            "f": np.array([-0.0, np.nan, -np.inf, 5e-324]),
            "b": np.array([True, False, True, False]),
            "i": np.array([-3, 0, 2**62, 7], dtype=np.int64),
            "list": [0.1, 1.0, -2.5e300, 1e-5],
        },
    )
    assert path.read_text() == (
        "f,b,i,list\n"
        "-0,1,-3,0.10000000000000001\n"
        "nan,0,0,1\n"
        "-inf,1,4611686018427387904,-2.5000000000000001e+300\n"
        "4.9406564584124654e-324,0,7,1.0000000000000001e-05\n"
    )


def test_write_csv_rejects_unequal_columns(tmp_path):
    with pytest.raises(ValueError, match="'y' has length 2, expected 3"):
        write_csv(tmp_path / "t.csv", {"x": [1, 2, 3], "y": [1.0, 2.0]})
