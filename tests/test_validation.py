"""The whole runtime check battery behind `planar-pendulum validate`."""

from planar_pendulum import ALL_CHECKS, run_all


def test_every_validation_check_passes():
    results = run_all()
    failed = [f"{r.name}: {r.detail}" for r in results if not r.passed]
    print("\n".join(failed))
    assert len(results) == len(ALL_CHECKS) == 29
    assert not failed, "\n".join(failed)
