#!/usr/bin/env python3
"""Fetch the UCI raw files into the data directory (network required).

The benchmarks only need the raw distribution files; this script downloads
them when the environment has network access and otherwise prints where to
put them by hand. Layout: <data_dir>/<name>/raw.<ext> plus a manifest file
recording the sha256 of the file that was fetched.
"""
import hashlib
import io
import sys
import urllib.request
import zipfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from costbench.data import UCI_SPECS

# Direct download endpoints; each yields the raw file (possibly inside a zip).
DOWNLOADS = {
    "german_credit": (
        "https://archive.ics.uci.edu/static/public/144/statlog+german+credit+data.zip",
        "german.data",
    ),
    "student_performance": (
        "https://archive.ics.uci.edu/static/public/697/predict+students+dropout+and+academic+success.zip",
        "data.csv",
    ),
    "diabetes": (
        "https://archive.ics.uci.edu/static/public/891/cdc+diabetes+health+indicators.zip",
        "diabetes_012_health_indicators_BRFSS2015.csv",
    ),
}


def fetch(name: str) -> bool:
    spec = UCI_SPECS[name]
    url, inner = DOWNLOADS[name]
    target = spec.raw_path()
    if target.exists():
        print(f"{name}: {target} already present")
        return True
    target.parent.mkdir(parents=True, exist_ok=True)
    print(f"{name}: downloading {url}")
    try:
        blob = urllib.request.urlopen(url, timeout=60).read()
    except Exception as exc:
        print(f"{name}: download failed ({exc}).")
        print(f"  Fetch it manually from {spec.url}")
        print(f"  and save the member file {inner!r} as {target}")
        return False
    with zipfile.ZipFile(io.BytesIO(blob)) as zf:
        member = next(m for m in zf.namelist() if m.endswith(inner))
        target.write_bytes(zf.read(member))
    digest = hashlib.sha256(target.read_bytes()).hexdigest()
    (target.parent / "manifest").write_text(
        f"sha256 {digest}\nrows {spec.expected_rows}\n"
    )
    print(f"{name}: wrote {target} (sha256 {digest[:12]}...)")
    return True


if __name__ == "__main__":
    names = sys.argv[1:] or ["german_credit", "student_performance", "diabetes"]
    ok = all(fetch(n) for n in names)
    sys.exit(0 if ok else 1)
