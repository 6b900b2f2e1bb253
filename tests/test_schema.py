"""The one file writer: a target is replaced whole or left as it was."""

import os

import pytest

from condenseg.schema import write_file


class TestWriteFile:
    @pytest.mark.parametrize("error", [OSError("disk full"), KeyboardInterrupt()],
                             ids=["os_error", "interrupt"])
    def test_failed_write_leaves_old_file(self, tmp_path, error):
        path = tmp_path / "out.bin"
        path.write_bytes(b"previous contents")
        before = sorted(os.listdir(tmp_path))

        def failing():
            yield b"new"
            raise error

        with pytest.raises(type(error)):
            write_file(path, failing())
        assert path.read_bytes() == b"previous contents"
        assert sorted(os.listdir(tmp_path)) == before

    def test_missing_directory_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            write_file(tmp_path / "no" / "out.bin", [b"x"])
        assert os.listdir(tmp_path) == []

    def test_mode_of_a_plain_open(self, tmp_path):
        old = os.umask(0o027)
        try:
            with open(tmp_path / "plain.bin", "wb") as f:
                f.write(b"x")
            write_file(tmp_path / "written.bin", [b"x"])
        finally:
            os.umask(old)
        assert (os.stat(tmp_path / "written.bin").st_mode
                == os.stat(tmp_path / "plain.bin").st_mode)
