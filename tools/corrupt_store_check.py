#!/usr/bin/env python3
"""Corruption-robustness sweep of the persistent warm store (--cache-dir).

Usage: corrupt_store_check.py SERVE_BINARY DESIGN_DIR

Serves the dumped suite cold on a server with --cache-dir, then damages
EVERY store file (round-robin: bit-flip in the payload, truncate to half,
zero-length rewrite) and restarts. The contract under test, driven under
ASan in CI: a server booting over an arbitrarily damaged store must
  - never crash and never serve a wrong answer,
  - reject and DELETE every damaged file (disk_load_corrupt == files,
    disk_loads == 0),
  - answer every request cold ("fresh") with report JSON byte-identical
    to the undamaged pass, and
  - re-spill the store as it answers, so a THIRD boot serves everything
    from disk again (all "hit", disk_loads == designs).
"""
import glob
import json
import shutil
import subprocess
import sys
import tempfile

# The counters come from a trailing control request: with --admit 1 the
# server handles it after every request before it.
STATS = {"id": "stats", "stats": True}


def run_serve(serve, cache_dir, requests):
    command = [
        serve, "--jobs", "2", "--admit", "1", "--cache-dir", cache_dir,
    ]
    text = "".join(json.dumps(r) + "\n" for r in requests)
    proc = subprocess.run(
        command, input=text, capture_output=True, text=True, check=True
    )
    lines = [json.loads(line) for line in proc.stdout.strip().split("\n")]
    assert len(lines) == len(requests), (len(lines), len(requests))
    bad = [l for l in lines if not l["ok"]]
    assert not bad, bad
    return lines


def damage(path, mode):
    with open(path, "rb") as f:
        bytes_ = bytearray(f.read())
    if mode == 0:  # bit flip inside the payload (past the 24-byte header)
        at = max(24, len(bytes_) // 2)
        bytes_[at] ^= 0x10
    elif mode == 1:  # truncation
        bytes_ = bytes_[: len(bytes_) // 2]
    else:  # zero-length rewrite
        bytes_ = bytearray()
    with open(path, "wb") as f:
        f.write(bytes_)


def main() -> int:
    serve = sys.argv[1]
    design_dir = sys.argv[2]
    designs = sorted(glob.glob(design_dir + "/*.g"))
    assert designs, f"no .g designs in {design_dir}"
    suite = [{"id": i, "design": path} for i, path in enumerate(designs)]

    cache_dir = tempfile.mkdtemp(prefix="sitime_corrupt_")
    try:
        # Pass 1: populate the store and record the reference bytes.
        first = run_serve(serve, cache_dir, suite)
        reference = {l["id"]: l["report"] for l in first}
        files = sorted(glob.glob(cache_dir + "/*.sit"))
        assert len(files) == len(designs), (len(files), len(designs))

        # Damage every file, a different way each.
        for i, path in enumerate(files):
            damage(path, i % 3)

        # Pass 2: boot over the wreckage. Everything must be rejected,
        # deleted, and answered cold — byte-identically, without a crash.
        *second, control = run_serve(serve, cache_dir, suite + [STATS])
        not_fresh = [
            (l["id"], l["cache"]) for l in second if l["cache"] != "fresh"
        ]
        assert not not_fresh, f"damaged-store pass not all cold: {not_fresh}"
        stats = control["stats"]
        assert stats["disk_loads"] == 0, stats
        assert stats["disk_load_corrupt"] == len(files), stats
        assert stats["disk_writes"] == len(designs), stats  # re-spilled
        for line in second:
            assert line["report"] == reference[line["id"]], (
                f"report drift after corruption for {line['id']}"
            )

        # Pass 3: the re-spilled store must serve everything warm again.
        *third, control = run_serve(serve, cache_dir, suite + [STATS])
        not_hit = [
            (l["id"], l["cache"]) for l in third if l["cache"] != "hit"
        ]
        assert not not_hit, f"re-spilled store not all hits: {not_hit}"
        stats = control["stats"]
        assert stats["disk_loads"] == len(designs), stats
        assert stats["disk_load_corrupt"] == 0, stats
        for line in third:
            assert line["report"] == reference[line["id"]], (
                f"report drift after re-spill for {line['id']}"
            )

        print(
            f"corrupt store OK: {len(files)} files damaged "
            f"(flip/truncate/zero), all rejected+deleted, "
            f"{len(designs)} designs served cold byte-identically, "
            f"store re-spilled and served warm on the third boot"
        )
        return 0
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
