"""Cut and byte-flipped scan, pose, sidecar and checkpoint files: each case
raises ScanParseError or parses to an object whose values are all finite,
never another exception. tests/test_lpr.py::TestDatabaseFuzz and
TestDatabase::test_every_truncation_is_data_error do the same for the place
database."""
import numpy as np
import pytest

from weatherlpr import bench, restorenet, weathersim
from weatherlpr.pointcloud import PointCloud, ScanParseError, read_scan, write_scan

FLIPS = 600

# a parser that warns on garbage (say, casting a signalling NaN) fails here
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def flipped(blob, rng):
    """``blob`` with 1-3 bytes at seeded offsets set to seeded values."""
    bad = bytearray(blob)
    for at in rng.integers(len(blob), size=rng.integers(1, 4)):
        bad[at] = int(rng.integers(256))
    return bytes(bad)


def count_parsed(parse, values, blobs, path):
    """How many of ``blobs`` parse; the rest must raise ScanParseError, and
    every array that ``values`` takes from a parsed object must be finite."""
    parsed = 0
    for blob in blobs:
        path.write_bytes(blob)
        try:
            got = parse(path)
        except ScanParseError:
            continue
        assert all(np.isfinite(v).all() for v in values(got)), blob
        parsed += 1
    return parsed


def cuts(blob, offsets=None):
    return [blob[:n] for n in (range(len(blob)) if offsets is None else offsets)]


def flips(blob, seed, n=FLIPS):
    rng = np.random.default_rng(seed)
    return [flipped(blob, rng) for _ in range(n)]


def cloud(seed, n=200, frame_id="000000"):
    rng = np.random.default_rng(seed)
    pts = np.column_stack([rng.uniform(-40, 40, (n, 2)), rng.uniform(-2, 3, n),
                           rng.random(n)])
    return PointCloud(pts, frame_id=frame_id)


class TestScanFuzz:
    @pytest.fixture()
    def blob(self, tmp_path):
        write_scan(cloud(1), tmp_path / "000000.bin")
        return (tmp_path / "000000.bin").read_bytes()

    @staticmethod
    def values(scan):
        return [scan.points]

    def test_every_cut(self, blob, tmp_path):
        # a cut at a whole point is a shorter scan; any other is an error
        parsed = count_parsed(read_scan, self.values, cuts(blob), tmp_path / "000001.bin")
        assert parsed == len(blob) // 16

    def test_byte_flips(self, blob, tmp_path):
        parsed = count_parsed(read_scan, self.values, flips(blob, 31), tmp_path / "000001.bin")
        assert 0 < parsed <= FLIPS


class TestPoseFileFuzz:
    @pytest.fixture()
    def blob(self, tmp_path):
        world = bench.make_synthetic_world(seed=5, n_places=6, revisit_fraction=1.0)
        bench.write_pose_file(world.database + world.queries, tmp_path / "poses.txt")
        return (tmp_path / "poses.txt").read_bytes()

    @staticmethod
    def values(poses):
        return [np.array(list(poses.values()), dtype=float)]

    def test_every_cut(self, blob, tmp_path):
        parsed = count_parsed(bench.read_pose_file, self.values, cuts(blob),
                              tmp_path / "cut.txt")
        assert 0 < parsed < len(blob)

    def test_byte_flips(self, blob, tmp_path):
        parsed = count_parsed(bench.read_pose_file, self.values, flips(blob, 32),
                              tmp_path / "flip.txt")
        assert 0 < parsed < FLIPS


class TestSidecarFuzz:
    @pytest.fixture()
    def blob(self, tmp_path):
        records = []
        for seed, fid in ((0, "000000"), (1, "000001")):
            _, ann = weathersim.corrupt(cloud(seed, frame_id=fid), "snow",
                                        weathersim.SnowParams(rate=2.5, seed=2))
            records.append((fid, ann))
        weathersim.write_annotations(records, tmp_path / "annotations.txt")
        return (tmp_path / "annotations.txt").read_bytes()

    @staticmethod
    def values(sidecar):
        return [a for noise, dropped in sidecar.values() for a in (noise, dropped)]

    def test_every_cut(self, blob, tmp_path):
        parsed = count_parsed(weathersim.read_annotations, self.values, cuts(blob),
                              tmp_path / "cut.txt")
        assert 0 < parsed < len(blob)

    def test_byte_flips(self, blob, tmp_path):
        parsed = count_parsed(weathersim.read_annotations, self.values, flips(blob, 33),
                              tmp_path / "flip.txt")
        assert 0 < parsed < FLIPS


class TestCheckpointFuzz:
    """A base_channels=2 checkpoint (70,832 bytes). Cutting it at every offset
    would build the net about 70,000 times, so the cuts are sampled: every
    offset of the header and the first two tensor records, and 300 seeded
    offsets past them."""

    @pytest.fixture(scope="class")
    def blob(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("ckpt") / "net.ckpt"
        restorenet.save_checkpoint(
            restorenet.ResLPRNet(restorenet.NetConfig(base_channels=2)), path)
        return path.read_bytes()

    @staticmethod
    def values(net):
        return [p.value for p in net.params()]

    @staticmethod
    def record_end(blob, at):
        """Offset past the tensor record that starts at ``at``: name length
        (2), name, rank (1), dims (4 each), float32 data."""
        nlen = int.from_bytes(blob[at:at + 2], "little")
        rank = blob[at + 2 + nlen]
        dims = np.frombuffer(blob[at + 3 + nlen:at + 3 + nlen + 4 * rank], dtype="<u4")
        return at + 3 + nlen + 4 * rank + 4 * int(np.prod(dims))

    def test_sampled_cuts(self, blob, tmp_path):
        head = self.record_end(blob, self.record_end(blob, 24))
        rng = np.random.default_rng(34)
        offsets = [*range(head), *rng.integers(head, len(blob), size=300)]
        assert count_parsed(restorenet.load_checkpoint, self.values, cuts(blob, offsets),
                            tmp_path / "cut.ckpt") == 0

    def test_byte_flips(self, blob, tmp_path):
        parsed = count_parsed(restorenet.load_checkpoint, self.values,
                              flips(blob, 35, n=300), tmp_path / "flip.ckpt")
        assert 0 < parsed < 300
