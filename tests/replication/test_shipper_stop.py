"""LogShipper.stop() returns promptly: the blocked accept thread is woken,
not waited out."""

import time

from repro.rdb.engine import Database
from repro.replication.shipper import LogShipper


def test_stop_is_bounded(tmp_path):
    db = Database(data_dir=str(tmp_path / "primary"), sync_mode="os")
    shipper = LogShipper(db).start()
    try:
        time.sleep(0.2)  # let the accept thread block in accept()
        started = time.monotonic()
        shipper.stop()
        assert time.monotonic() - started < 1.0
        assert not shipper._accept_thread.is_alive()
    finally:
        db.close()
