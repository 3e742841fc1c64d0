"""Round-trip and integrity tests for the model-artifact storage layer.

The contract under test is the acceptance criterion of the save/load
subsystem: a model fitted once, saved, and loaded back answers STRQ/TPQ/
exact workloads (scalar and batched) *identically* to the in-memory model,
and corrupted or truncated artifacts fail with a clear :class:`ArtifactError`
instead of returning garbage results.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro import PPQTrajectory
from repro.cli import EXIT_ARTIFACT, main
from repro.core.config import CQCConfig
from repro.data.synthetic import PORTO_LIKE, generate_dataset, generate_porto_like
from repro.data.trajectory import Trajectory, TrajectoryDataset
from repro.queries.batch import Workload
from repro.storage import (
    ArtifactChecksumError,
    ArtifactError,
    ArtifactFormatError,
    ArtifactVersionError,
    inspect_model,
    load_model,
    save_model,
)
from repro.storage.format import (
    FORMAT_VERSION,
    MAGIC,
    ByteReader,
    ByteWriter,
    pack_artifact,
    unpack_artifact,
)
from repro.storage.io import (
    _encode_dataset,
    _encode_reconstructions,
    _encode_records,
)


@pytest.fixture(scope="module")
def dataset():
    return generate_porto_like(num_trajectories=25, max_length=45, seed=11)


@pytest.fixture(scope="module", params=["ppq_s", "ppq_a", "basic"])
def fitted(request, dataset):
    """Fitted systems covering CQC-on (both criteria) and CQC-off."""
    if request.param == "ppq_s":
        system = PPQTrajectory.ppq_s()
    elif request.param == "ppq_a":
        system = PPQTrajectory.ppq_a()
    else:
        system = PPQTrajectory.ppq_s(cqc_config=CQCConfig(enabled=False))
    return system.fit(dataset)


@pytest.fixture()
def saved(fitted, tmp_path):
    path = tmp_path / "model.ppq"
    fitted.save(path)
    return fitted, path


def _query_probes(dataset, n=25, seed=3):
    """(x, y, t) probes drawn from real points so candidates are non-trivial."""
    rng = np.random.default_rng(seed)
    probes = []
    ids = dataset.trajectory_ids
    while len(probes) < n:
        traj = dataset.get(int(rng.choice(ids)))
        row = int(rng.integers(0, len(traj)))
        probes.append((float(traj.points[row, 0]), float(traj.points[row, 1]),
                       int(traj.timestamps[row])))
    return probes


def test_scalar_queries_identical_after_roundtrip(saved, dataset):
    original, path = saved
    loaded = PPQTrajectory.load(path)
    some_candidates = False
    for x, y, t in _query_probes(dataset):
        a = original.strq(x, y, t)
        b = loaded.strq(x, y, t)
        assert a.candidates == b.candidates
        assert set(a.reconstructed) == set(b.reconstructed)
        for tid in a.reconstructed:
            assert np.array_equal(a.reconstructed[tid], b.reconstructed[tid])
        some_candidates = some_candidates or bool(a.candidates)

        ta = original.tpq(x, y, t, length=6)
        tb = loaded.tpq(x, y, t, length=6)
        assert set(ta.paths) == set(tb.paths)
        for tid in ta.paths:
            assert np.array_equal(ta.paths[tid], tb.paths[tid])

        ea = original.exact(x, y, t)
        eb = loaded.exact(x, y, t)
        assert ea.candidates == eb.candidates
        assert ea.matches == eb.matches
        assert ea.visited_ratio == eb.visited_ratio
    assert some_candidates, "probe set never hit the index; test is vacuous"


def test_batch_workload_identical_after_roundtrip(saved, dataset):
    original, path = saved
    loaded = PPQTrajectory.load(path)
    specs = []
    for i, (x, y, t) in enumerate(_query_probes(dataset, n=18, seed=9)):
        kind = ("strq", "tpq", "exact")[i % 3]
        spec = {"type": kind, "x": x, "y": y, "t": t}
        if kind == "tpq":
            spec["length"] = 5
        specs.append(spec)
    workload = Workload.from_obj(specs)
    for a, b in zip(original.run_batch(workload), loaded.run_batch(workload)):
        assert type(a) is type(b)
        if hasattr(a, "paths"):
            assert set(a.paths) == set(b.paths)
            for tid in a.paths:
                assert np.array_equal(a.paths[tid], b.paths[tid])
        elif hasattr(a, "matches"):
            assert a.candidates == b.candidates
            assert a.matches == b.matches
        else:
            assert a.candidates == b.candidates


def test_reconstruction_and_summary_state_roundtrip(saved):
    original, path = saved
    loaded = PPQTrajectory.load(path)
    orig, rest = original.summary, loaded.summary
    assert orig.timestamps == rest.timestamps
    assert orig.num_points == rest.num_points
    assert np.array_equal(orig.codebook.codewords, rest.codebook.codewords)
    for t in orig.timestamps:
        a, b = orig.records[t], rest.records[t]
        assert a.partition_of == b.partition_of
        assert a.codeword_index == b.codeword_index
        assert a.cqc_codes == b.cqc_codes
        assert sorted(a.coefficients) == sorted(b.coefficients)
        for pid in a.coefficients:
            assert np.array_equal(a.coefficients[pid], b.coefficients[pid])
    # Reconstructions (CQC-refined) are identical for every stored point.
    for t in orig.timestamps:
        for tid in orig.trajectories_at(t):
            assert np.array_equal(orig.reconstruct_point(tid, t),
                                  rest.reconstruct_point(tid, t))


def test_index_roundtrip_state(saved):
    original, path = saved
    loaded = PPQTrajectory.load(path)
    a, b = original.engine.index, loaded.engine.index
    assert a.num_periods == b.num_periods
    assert [(p.start, p.end) for p in a.periods] == [(p.start, p.end) for p in b.periods]
    assert a.storage_bits() == b.storage_bits()
    for pa, pb in zip(a.periods, b.periods):
        assert pa.index.num_rectangles == pb.index.num_rectangles
        assert pa.index.num_indexed_ids == pb.index.num_indexed_ids
        assert pa.index.baseline_density == pytest.approx(pb.index.baseline_density)


def test_save_requires_fitted_model(tmp_path):
    with pytest.raises(RuntimeError, match="fit"):
        PPQTrajectory.ppq_s().save(tmp_path / "nope.ppq")


def test_save_without_raw_disables_exact(saved, tmp_path, dataset):
    original, _ = saved
    path = tmp_path / "noraw.ppq"
    original.save(path, include_raw=False)
    loaded = PPQTrajectory.load(path)
    x, y, t = _query_probes(dataset, n=1)[0]
    assert loaded.strq(x, y, t).candidates == original.strq(x, y, t).candidates
    with pytest.raises(RuntimeError, match="raw dataset"):
        loaded.exact(x, y, t)


def test_inspect_model_reports_sections(saved):
    _, path = saved
    info = inspect_model(path)
    assert info.format_version == FORMAT_VERSION
    assert info.checksums_ok
    names = [section.name for section in info.sections]
    assert names[:5] == ["CONFIG", "CODEBOOK", "RECORDS", "RECON", "INDEX"]
    assert info.config is not None and "ppq" in info.config
    assert info.file_size == path.stat().st_size
    assert all(section.length > 0 for section in info.sections)


def test_corrupted_payload_raises_checksum_error(saved, tmp_path):
    """Flipping any payload byte must fail the load with a checksum error."""
    _, path = saved
    blob = bytearray(path.read_bytes())
    info = inspect_model(path)
    for section in info.sections:
        corrupt = bytearray(blob)
        corrupt[section.offset + section.length // 2] ^= 0xFF
        bad = tmp_path / f"bad_{section.name}.ppq"
        bad.write_bytes(bytes(corrupt))
        with pytest.raises(ArtifactChecksumError):
            load_model(bad)
        # info still describes the damaged file instead of raising.
        damaged = inspect_model(bad)
        assert not damaged.checksums_ok
        assert [s.crc_ok for s in damaged.sections].count(False) == 1


def test_every_byte_flip_is_detected(saved, tmp_path):
    """Whole-file sweep: a flip anywhere raises ArtifactError, never garbage."""
    _, path = saved
    blob = bytearray(path.read_bytes())
    rng = np.random.default_rng(5)
    for offset in sorted(rng.choice(len(blob), size=40, replace=False).tolist()):
        corrupt = bytearray(blob)
        corrupt[offset] ^= 0xFF
        bad = tmp_path / "flip.ppq"
        bad.write_bytes(bytes(corrupt))
        with pytest.raises(ArtifactError):
            load_model(bad)


def test_truncated_artifact_raises(saved, tmp_path):
    _, path = saved
    blob = path.read_bytes()
    for cut in (0, 4, 20, 100, len(blob) - 1):
        bad = tmp_path / "short.ppq"
        bad.write_bytes(blob[:cut])
        with pytest.raises(ArtifactError):
            load_model(bad)


def test_not_an_artifact_raises(tmp_path):
    bad = tmp_path / "random.bin"
    bad.write_bytes(b"definitely not a model artifact, sorry" * 10)
    with pytest.raises(ArtifactFormatError, match="magic"):
        load_model(bad)


def test_newer_format_version_rejected(tmp_path):
    blob = bytearray(pack_artifact([("CONFIG", b"{}")]))
    assert blob[:8] == MAGIC
    blob[8] = FORMAT_VERSION + 1  # little-endian u32 version field
    bad = tmp_path / "future.ppq"
    bad.write_bytes(bytes(blob))
    with pytest.raises(ArtifactVersionError, match="newer"):
        load_model(bad)


def test_missing_section_raises(tmp_path):
    blob = pack_artifact([("CONFIG", b"{}")])
    bad = tmp_path / "partial.ppq"
    bad.write_bytes(blob)
    with pytest.raises(ArtifactFormatError, match="missing"):
        load_model(bad)


def test_module_level_save_load_match_methods(saved, tmp_path, dataset):
    """save_model/load_model and the PPQTrajectory methods are one API."""
    original, _ = saved
    path = tmp_path / "func.ppq"
    assert save_model(original, path) == path
    loaded = load_model(path)
    x, y, t = _query_probes(dataset, n=1, seed=21)[0]
    assert loaded.strq(x, y, t).candidates == original.strq(x, y, t).candidates


# ---------------------------------------------------------------------- #
# salvage loading (strict=False)
# ---------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def salvage_saved(dataset, tmp_path_factory):
    """One fitted+saved system reused by every salvage case below."""
    system = PPQTrajectory.ppq_s().fit(dataset)
    path = tmp_path_factory.mktemp("salvage") / "model.ppq"
    system.save(path)
    return system, path


def _flip_section_byte(path, tmp_path, name):
    """Copy the artifact with one byte flipped inside section ``name``."""
    blob = bytearray(path.read_bytes())
    section = next(s for s in inspect_model(path).sections if s.name == name)
    blob[section.offset + section.length // 2] ^= 0xFF
    bad = tmp_path / f"flip_{name}.ppq"
    bad.write_bytes(bytes(blob))
    return bad


def _assert_strq_equal(a_system, b_system, dataset):
    hits = False
    for x, y, t in _query_probes(dataset, n=12, seed=17):
        ra, rb = a_system.strq(x, y, t), b_system.strq(x, y, t)
        assert ra.candidates == rb.candidates
        for tid in ra.reconstructed:
            assert np.array_equal(ra.reconstructed[tid], rb.reconstructed[tid])
        hits = hits or bool(ra.candidates)
    assert hits, "probe set never hit the index; comparison is vacuous"


def test_salvage_rebuilds_corrupt_index(salvage_saved, tmp_path, dataset):
    original, path = salvage_saved
    bad = _flip_section_byte(path, tmp_path, "INDEX")
    with pytest.raises(ArtifactChecksumError):
        load_model(bad)  # default stays strict
    loaded = load_model(bad, strict=False)
    report = loaded.load_report
    assert report is not None and not report.clean
    assert report.rebuilt == ["INDEX"]
    assert not report.dropped and not report.lost
    # The rebuilt TPI serves queries identical to the undamaged model.
    _assert_strq_equal(original, loaded, dataset)


def _gapped(dataset, gap=3):
    """Copy of ``dataset`` with a ``gap``-step hole in the middle of every trajectory."""
    return TrajectoryDataset(
        Trajectory(traj.traj_id, traj.points,
                   traj.timestamps + gap * (np.arange(len(traj)) >= len(traj) // 2))
        for traj in dataset
    )


@pytest.fixture(scope="module", params=["contiguous", "gapped"])
def replay_saved(request, dataset, tmp_path_factory):
    """A fitted+saved PPQ-S system on the contiguous dataset or a gapped copy."""
    data = dataset if request.param == "contiguous" else _gapped(dataset)
    system = PPQTrajectory.ppq_s().fit(data)
    path = tmp_path_factory.mktemp("replay") / "model.ppq"
    system.save(path)
    return system, path, data


def _stored_points(summary):
    return sum(len(points) for points in summary._reconstructions.values())


def _answer_bytes(result) -> bytes:
    """Every field of an STRQ/TPQ/exact answer, arrays as raw bytes."""
    fields = []
    for name, value in sorted(vars(result).items()):
        if isinstance(value, dict):
            value = [(key, value[key].tobytes()) for key in sorted(value)]
        fields.append((name, value))
    return repr((type(result).__name__, fields)).encode()


@pytest.mark.parametrize("sections", [("RECON",), ("RECON", "INDEX")],
                         ids=["recon", "recon+index"])
def test_salvage_recomputes_corrupt_reconstructions(replay_saved, tmp_path, sections):
    """Salvage replays the reconstructions, gaps included: every answer equals
    the clean model's byte for byte."""
    original, path, data = replay_saved
    bad = path
    for name in sections:
        bad = _flip_section_byte(bad, tmp_path, name)
    loaded = load_model(bad, strict=False)
    assert loaded.load_report.rebuilt == list(sections)
    assert _stored_points(loaded.summary) == loaded.summary.num_points == data.num_points
    for t in original.summary.timestamps:
        for tid in original.summary.trajectories_at(t):
            assert (original.summary.reconstruct_point(tid, t).tobytes()
                    == loaded.summary.reconstruct_point(tid, t).tobytes()), (tid, t)
    specs = []
    for i, (x, y, t) in enumerate(_query_probes(data, n=60, seed=29)):
        kind = ("strq", "tpq", "exact")[i % 3]
        specs.append({"type": kind, "x": x, "y": y, "t": t, "length": 8})
    workload = Workload.from_obj(specs)
    clean, salvaged = original.run_batch(workload), loaded.run_batch(workload)
    assert any(getattr(answer, "candidates", None) for answer in clean)
    assert [_answer_bytes(a) for a in clean] == [_answer_bytes(b) for b in salvaged]


def test_every_summary_holds_every_reconstruction(replay_saved, tmp_path):
    """Fit, strict load and salvage load all store one reconstruction per point."""
    original, path, data = replay_saved
    strict = load_model(path)
    salvaged = load_model(_flip_section_byte(path, tmp_path, "RECON"), strict=False)
    for system in (original, strict, salvaged):
        assert _stored_points(system.summary) == system.summary.num_points == data.num_points


def test_incomplete_reconstructions_are_replayed(replay_saved, tmp_path):
    """A RECON section missing points (as saved after a lazy salvage before
    replay existed) fails a strict load and is replayed by a salvage load."""
    original, path, _data = replay_saved
    _version, payloads = unpack_artifact(path.read_bytes())
    partial = load_model(path)
    dropped = max(partial.summary._reconstructions)
    del partial.summary._reconstructions[dropped]
    payloads["RECON"] = _encode_reconstructions(partial.summary)
    bad = tmp_path / "partial_recon.ppq"
    bad.write_bytes(pack_artifact(list(payloads.items())))
    with pytest.raises(ArtifactFormatError, match="RECON holds"):
        load_model(bad)
    loaded = load_model(bad, strict=False)
    assert loaded.load_report.rebuilt == ["RECON"]
    for t in original.summary.appearances(dropped):
        assert (original.summary.reconstruct_point(dropped, t).tobytes()
                == loaded.summary.reconstruct_point(dropped, t).tobytes())


def test_salvage_recomputes_long_trajectories(tmp_path):
    """After a RECON salvage, recomputing 1,500-point chains answers like the
    clean model."""
    dataset = generate_dataset(dataclasses.replace(
        PORTO_LIKE, num_trajectories=3, min_length=1500, max_length=1500, seed=5))
    original = PPQTrajectory.ppq_s().fit(dataset)
    path = tmp_path / "long.ppq"
    original.save(path)
    loaded = load_model(_flip_section_byte(path, tmp_path, "RECON"), strict=False)
    assert loaded.load_report.rebuilt == ["RECON"]
    t = 1499
    for tid in dataset.trajectory_ids:
        x, y = map(float, dataset.get(tid).points[t])
        clean, salvaged = original.strq(x, y, t), loaded.strq(x, y, t)
        assert tid in clean.candidates
        assert salvaged.candidates == clean.candidates
        for cand in clean.reconstructed:
            assert np.array_equal(salvaged.reconstructed[cand], clean.reconstructed[cand])
        clean_paths = original.tpq(x, y, t, length=5).paths
        salvaged_paths = loaded.tpq(x, y, t, length=5).paths
        assert salvaged_paths.keys() == clean_paths.keys()
        for cand, path_points in clean_paths.items():
            assert np.array_equal(salvaged_paths[cand], path_points)


def test_salvage_drops_corrupt_rawdata(salvage_saved, tmp_path, dataset):
    original, path = salvage_saved
    bad = _flip_section_byte(path, tmp_path, "RAWDATA")
    with pytest.warns(RuntimeWarning, match="exact"):
        loaded = load_model(bad, strict=False)
    report = loaded.load_report
    assert report.dropped == ["RAWDATA"]
    assert "exact queries" in report.lost
    assert any("lost capabilities" in line for line in report.lines())
    x, y, t = _query_probes(dataset, n=1, seed=23)[0]
    with pytest.raises(RuntimeError, match="raw dataset"):
        loaded.exact(x, y, t)
    _assert_strq_equal(original, loaded, dataset)  # approx queries unaffected


def test_record_without_partition_is_a_format_error(salvage_saved, tmp_path):
    """Replay needs each summarised point's partition: a record that lacks
    one is refused by strict and salvage loads alike."""
    _, path = salvage_saved
    summary = load_model(path).summary
    record = summary.records[summary.timestamps[3]]
    del record.partition_of[min(record.partition_of)]
    _version, payloads = unpack_artifact(path.read_bytes())
    payloads["RECORDS"] = _encode_records(summary)
    bad = tmp_path / "no_partition.ppq"
    bad.write_bytes(pack_artifact(list(payloads.items())))
    for strict in (True, False):
        with pytest.raises(ArtifactFormatError, match="RECORDS at t="):
            load_model(bad, strict=strict)


def test_rawdata_with_repeated_timestamps_is_a_format_error(salvage_saved, tmp_path,
                                                            dataset, capsys):
    """RAWDATA written before repeated timestamps were rejected: strict loads
    refuse it with a format error (exit 3) and salvage drops it."""
    original, path = salvage_saved
    repeated = TrajectoryDataset(Trajectory(traj.traj_id, traj.points) for traj in dataset)
    traj = repeated.get(dataset.trajectory_ids[0])
    traj.timestamps = np.insert(traj.timestamps[:-1], 4, 3)   # 0, 1, 2, 3, 3, 4, ...
    _version, payloads = unpack_artifact(path.read_bytes())
    payloads["RAWDATA"] = _encode_dataset(repeated)
    bad = tmp_path / "repeated.ppq"
    bad.write_bytes(pack_artifact(list(payloads.items())))
    with pytest.raises(ArtifactFormatError, match="3 follows 3"):
        load_model(bad)
    assert main(["load", str(bad)]) == EXIT_ARTIFACT
    err = capsys.readouterr().err
    assert "error: artifact" in err and "Traceback" not in err
    with pytest.warns(RuntimeWarning, match="exact"):
        loaded = load_model(bad, strict=False)
    assert loaded.load_report.dropped == ["RAWDATA"]
    _assert_strq_equal(original, loaded, dataset)


@pytest.mark.parametrize("section", ["CONFIG", "CODEBOOK", "RECORDS"])
def test_salvage_cannot_recover_required_sections(salvage_saved, tmp_path, section):
    _, path = salvage_saved
    bad = _flip_section_byte(path, tmp_path, section)
    with pytest.raises(ArtifactChecksumError):
        load_model(bad, strict=False)


def test_salvage_of_truncated_tail(salvage_saved, tmp_path, dataset):
    """A tail truncation (mid-RAWDATA) salvages into a query-able system."""
    original, path = salvage_saved
    blob = path.read_bytes()
    rawdata = next(s for s in inspect_model(path).sections if s.name == "RAWDATA")
    bad = tmp_path / "truncated.ppq"
    bad.write_bytes(blob[: rawdata.offset + rawdata.length // 3])
    with pytest.raises(ArtifactError):
        load_model(bad)
    with pytest.warns(RuntimeWarning):
        loaded = load_model(bad, strict=False)
    assert "RAWDATA" in loaded.load_report.dropped
    _assert_strq_equal(original, loaded, dataset)


def test_non_strict_load_of_clean_artifact_reports_all_ok(salvage_saved):
    _, path = salvage_saved
    loaded = load_model(path, strict=False)
    report = loaded.load_report
    assert report.clean
    assert [s.status for s in report.sections] == ["ok"] * len(report.sections)


def _staggered(num_trajectories=16, max_length=30, spread=40, seed=13):
    """Porto-like trips whose start times are spread over ``spread`` steps."""
    base = generate_porto_like(num_trajectories=num_trajectories, max_length=max_length,
                               seed=seed)
    rng = np.random.default_rng(seed)
    return TrajectoryDataset(
        Trajectory(tr.traj_id, tr.points, tr.timestamps + int(rng.integers(0, spread)))
        for tr in base
    )


def test_artifacts_are_byte_reproducible(tmp_path):
    """Two fits save the same bytes, and a load followed by a save rewrites
    them unchanged: INDEX holds no build time, and its arrays round-trip."""
    data = _staggered()
    first, second, again = (tmp_path / name for name in ("a.ppq", "b.ppq", "c.ppq"))
    fitted = PPQTrajectory.ppq_s().fit(data)
    fitted.save(first)
    PPQTrajectory.ppq_s().fit(data).save(second)
    assert first.read_bytes() == second.read_bytes()
    loaded = load_model(first)
    loaded.save(again)
    assert again.read_bytes() == first.read_bytes()

    a, b = fitted.engine.index, loaded.engine.index
    assert a.num_periods >= 2 and a.stats.num_insertions > 0
    assert (a.seed, a.stats.num_rebuilds, a.stats.num_insertions) == (
        b.seed, b.stats.num_rebuilds, b.stats.num_insertions)
    assert b.stats.build_seconds == 0.0 < a.stats.build_seconds
    assert a.storage_bits() == b.storage_bits()
    for pa, pb in zip(a.periods, b.periods, strict=True):
        assert (pa.start, pa.end, pa.index.t) == (pb.start, pb.end, pb.index.t)
        assert pa.index.baseline_density == pb.index.baseline_density
        for ga, gb in zip(pa.index.grids, pb.index.grids, strict=True):
            assert (ga.rect, ga.cell_size) == (gb.rect, gb.cell_size)
            assert ga.postings() == gb.postings()


_INDEX_ARRAYS = ("periods", "grid_offsets", "grids", "cell_offsets", "cells",
                 "id_offsets", "ids")


def _with_index(path, tmp_path, mutate):
    """Copy of the artifact whose INDEX arrays went through ``mutate(arrays)``.

    INDEX is re-encoded and the artifact repacked, so every checksum is valid.
    """
    _version, payloads = unpack_artifact(path.read_bytes())
    reader = ByteReader(payloads["INDEX"])
    header = (reader.i64(), reader.u64(), reader.u64())
    arrays = {name: reader.array() for name in _INDEX_ARRAYS}
    assert reader.remaining == 0
    mutate(arrays)
    writer = ByteWriter()
    writer.i64(header[0])
    writer.u64(header[1])
    writer.u64(header[2])
    for name in _INDEX_ARRAYS:
        writer.array(arrays[name])
    payloads["INDEX"] = writer.getvalue()
    bad = tmp_path / "bad_index.ppq"
    bad.write_bytes(pack_artifact(list(payloads.items())))
    return bad


def _first_run(offsets, min_length):
    """Start of the first run of at least ``min_length`` entries."""
    return int(offsets[np.flatnonzero(np.diff(offsets) >= min_length)[0]])


def _swap_next(array, at):
    array[[at, at + 1]] = array[[at + 1, at]]


def _decrease_offsets(arrays):
    _swap_next(arrays["id_offsets"], 1)


def _short_offsets(arrays):
    arrays["cell_offsets"] = arrays["cell_offsets"][:-1]


def _empty_cell(arrays):
    offsets = arrays["id_offsets"]
    offsets[1] = offsets[2]


def _cells_out_of_order(arrays):
    _swap_next(arrays["cells"], _first_run(arrays["cell_offsets"], 2))


def _repeated_cell(arrays):
    at = _first_run(arrays["cell_offsets"], 2)
    arrays["cells"][at + 1] = arrays["cells"][at]


def _ids_out_of_order(arrays):
    _swap_next(arrays["ids"], _first_run(arrays["id_offsets"], 2))


def _repeated_id(arrays):
    at = _first_run(arrays["id_offsets"], 2)
    arrays["ids"][at + 1] = arrays["ids"][at]


def _bad_rectangle(arrays):
    arrays["grids"][0, 0] = arrays["grids"][0, 2] + 1.0   # min_x above max_x


def _bad_cell_size(arrays):
    arrays["grids"][0, 4] = 0.0


def _foreign_cell_size(arrays):
    arrays["grids"][-1, 4] *= 2.0   # positive, but not CONFIG's grid_cell


def _periods_out_of_order(arrays):
    assert len(arrays["periods"]) >= 3
    _swap_next(arrays["periods"], 1)


def _period_ends_before_start(arrays):
    periods = arrays["periods"]
    periods[-1, 1] = periods[-1, 0] - 1


def _periods_overlap(arrays):
    periods = arrays["periods"]
    periods[1, 0] = periods[0, 1]


#: Case -> (mutation of the INDEX arrays, what the strict load's error says).
_MALFORMED_INDEX = {
    "decreasing-offsets": (_decrease_offsets, "id_offsets do not split"),
    "short-offsets": (_short_offsets, "cell_offsets do not split"),
    "empty-cell": (_empty_cell, "leave a cell empty"),
    "cells-out-of-order": (_cells_out_of_order, "cells are not strictly ascending"),
    "repeated-cell": (_repeated_cell, "cells are not strictly ascending"),
    "ids-out-of-order": (_ids_out_of_order, "ids are not strictly ascending"),
    "repeated-id": (_repeated_id, "ids are not strictly ascending"),
    "bad-rectangle": (_bad_rectangle, "degenerate rectangle"),
    "bad-cell-size": (_bad_cell_size, "non-positive cell size"),
    "foreign-cell-size": (_foreign_cell_size, "cell size is not CONFIG's grid_cell"),
    "periods-out-of-order": (_periods_out_of_order, "periods are not ascending and disjoint"),
    "period-ends-before-start": (_period_ends_before_start,
                                 "periods are not ascending and disjoint"),
    "periods-overlap": (_periods_overlap, "periods are not ascending and disjoint"),
}


@pytest.mark.parametrize("case", list(_MALFORMED_INDEX))
def test_malformed_index_arrays_are_a_format_error(salvage_saved, tmp_path, dataset,
                                                   capsys, case):
    original, path = salvage_saved
    mutate, match = _MALFORMED_INDEX[case]
    _assert_index_refused(original, _with_index(path, tmp_path, mutate), dataset, capsys,
                          match=f"INDEX .*{match}")


def test_version_1_artifact_loads_only_by_salvage(salvage_saved, tmp_path, dataset, capsys):
    """Version 1 stored INDEX per cell with its own Huffman table; that layout
    is no longer read, so only a salvage load (which rebuilds INDEX) succeeds."""
    original, path = salvage_saved
    blob = bytearray(path.read_bytes())
    blob[8] = 1  # little-endian u32 version field; the table CRC does not cover it
    old = tmp_path / "version1.ppq"
    old.write_bytes(bytes(blob))
    assert inspect_model(old).format_version == 1
    _assert_index_refused(original, old, dataset, capsys, match="version 1.*strict=False")


def _assert_index_refused(original, bad, dataset, capsys, match):
    """Strict loads refuse ``bad`` cleanly; salvage rebuilds INDEX and answers
    like ``original``."""
    with pytest.raises(ArtifactFormatError, match=match):
        load_model(bad)
    assert main(["load", str(bad)]) == EXIT_ARTIFACT
    err = capsys.readouterr().err
    assert "error: artifact" in err and "Traceback" not in err
    assert main(["load", "--no-strict", str(bad)]) == 0
    assert "INDEX: rebuilt" in capsys.readouterr().out
    loaded = load_model(bad, strict=False)
    assert loaded.load_report.rebuilt == ["INDEX"]
    _assert_strq_equal(original, loaded, dataset)
