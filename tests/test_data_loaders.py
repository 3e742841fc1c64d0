"""Tests for the real-dataset loaders (exercised on small fixture files)."""

import pytest

from repro.data.loaders import iter_dataset_chunks, load_plt_directory, load_porto_csv
from repro.data.synthetic import generate_porto_like


@pytest.fixture()
def porto_csv(tmp_path):
    """A tiny CSV in the Porto taxi challenge format."""
    lines = [
        'TRIP_ID,CALL_TYPE,POLYLINE',
        '1,A,"[[-8.61, 41.14], [-8.62, 41.15], [-8.63, 41.16]]"',
        '2,B,"[[-8.60, 41.10], [-8.61, 41.11]]"',
        '3,C,"[]"',
        '4,A,"' + str([[-8.6 + 0.001 * i, 41.1 + 0.001 * i] for i in range(35)]) + '"',
    ]
    path = tmp_path / "porto.csv"
    path.write_text("\n".join(lines), encoding="utf-8")
    return path


@pytest.fixture()
def plt_directory(tmp_path):
    """A tiny GeoLife-style directory with two .plt files."""
    root = tmp_path / "geolife" / "000" / "Trajectory"
    root.mkdir(parents=True)
    header = "\n".join(["Geolife trajectory", "WGS 84", "Altitude is in Feet",
                        "Reserved 3", "0,2,255,My Track,0,0,2,8421376", "0"])
    long_points = "\n".join(
        f"{39.9 + 0.001 * i},{116.3 + 0.001 * i},0,100,39000,2008-10-23,02:53:04"
        for i in range(40)
    )
    (root / "20081023025304.plt").write_text(header + "\n" + long_points, encoding="utf-8")
    short_points = "\n".join(
        f"{39.9},{116.3},0,100,39000,2008-10-23,02:53:04" for _ in range(5)
    )
    (root / "20081023030000.plt").write_text(header + "\n" + short_points, encoding="utf-8")
    return tmp_path / "geolife"


class TestPortoLoader:
    def test_min_length_filter(self, porto_csv):
        dataset = load_porto_csv(str(porto_csv), min_length=30)
        assert len(dataset) == 1
        assert len(dataset.get(0)) == 35

    def test_loads_all_when_threshold_low(self, porto_csv):
        dataset = load_porto_csv(str(porto_csv), min_length=2)
        assert len(dataset) == 3  # the empty polyline row is always dropped

    def test_coordinates_are_lon_lat(self, porto_csv):
        dataset = load_porto_csv(str(porto_csv), min_length=2)
        first = dataset.get(0).points[0]
        assert first[0] == pytest.approx(-8.61)
        assert first[1] == pytest.approx(41.14)

    def test_max_trajectories_cap(self, porto_csv):
        dataset = load_porto_csv(str(porto_csv), min_length=2, max_trajectories=1)
        assert len(dataset) == 1

    def test_missing_polyline_column_raises(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("A,B\n1,2\n", encoding="utf-8")
        with pytest.raises(ValueError):
            load_porto_csv(str(path))

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_porto_csv(str(tmp_path / "missing.csv"))

    def test_malformed_polyline_raises(self, tmp_path):
        path = tmp_path / "bad2.csv"
        path.write_text('POLYLINE\n"[[-8.6, 41.1], [-8.6"\n', encoding="utf-8")
        with pytest.raises(ValueError):
            load_porto_csv(str(path), min_length=1)


class TestGeoLifeLoader:
    def test_min_length_filter(self, plt_directory):
        dataset = load_plt_directory(str(plt_directory), min_length=30)
        assert len(dataset) == 1
        assert len(dataset.get(0)) == 40

    def test_lon_lat_order(self, plt_directory):
        dataset = load_plt_directory(str(plt_directory), min_length=30)
        first = dataset.get(0).points[0]
        # x should be the longitude (~116), y the latitude (~39).
        assert first[0] == pytest.approx(116.3)
        assert first[1] == pytest.approx(39.9)

    def test_max_trajectories_cap(self, plt_directory):
        dataset = load_plt_directory(str(plt_directory), min_length=1, max_trajectories=1)
        assert len(dataset) == 1

    def test_missing_root_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="does not exist"):
            load_plt_directory(str(tmp_path / "nowhere"))

    def test_file_root_raises(self, plt_directory):
        plt_file = next(plt_directory.rglob("*.plt"))
        with pytest.raises(NotADirectoryError, match="not a directory"):
            load_plt_directory(str(plt_file))

    def test_empty_directory_yields_empty_dataset(self, tmp_path):
        assert len(load_plt_directory(str(tmp_path))) == 0


class TestChunking:
    def test_iter_dataset_chunks_covers_everything(self):
        dataset = generate_porto_like(num_trajectories=10, max_length=35, seed=3)
        chunks = list(iter_dataset_chunks(dataset, chunk_size=4))
        assert [len(c) for c in chunks] == [4, 4, 2]
        seen = sorted(tid for chunk in chunks for tid in chunk.trajectory_ids)
        assert seen == dataset.trajectory_ids
