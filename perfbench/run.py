#!/usr/bin/env python3
"""Build the benchmark and `tempora-serve` from source, then run one workload.

    python3 perfbench/run.py --workload solve-seq|solve-tiled|serve-mix \
        --seed N --seconds S --trace 0|1

Both builds use the workspace's own release profile: its `[profile.release]`
table, if any, is mirrored into the benchmark's build through Cargo's
`CARGO_PROFILE_RELEASE_*` variables. `RUSTFLAGS` and `TEMPORA_ENGINE` are
removed from the environment, so the measured build is the shipped one.
Build output goes to `$CARGO_TARGET_DIR` (default `.bench_build`), cached
oracle digests to `.bench_cache`, raw logs and spans to `.bench_out`, all
under the repository root. The last line of standard output is the result.
"""

import os
import subprocess
import sys
import tomllib

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DROPPED = ("RUSTFLAGS", "CARGO_ENCODED_RUSTFLAGS", "CARGO_BUILD_RUSTFLAGS", "TEMPORA_ENGINE")


def release_profile():
    """The root manifest's [profile.release] as Cargo environment overrides."""
    with open(os.path.join(ROOT, "Cargo.toml"), "rb") as f:
        profile = tomllib.load(f).get("profile", {}).get("release", {})
    env = {}
    for key, value in profile.items():
        if isinstance(value, dict):
            continue  # per-package overrides have no environment form
        if isinstance(value, bool):
            value = str(value).lower()
        env["CARGO_PROFILE_RELEASE_" + key.upper().replace("-", "_")] = str(value)
    described = " ".join(f"{k}={v}" for k, v in sorted(profile.items()) if not isinstance(v, dict))
    return env, "release " + (described or "(cargo defaults)")


def main():
    env = {k: v for k, v in os.environ.items() if k not in DROPPED}
    target = env.get("CARGO_TARGET_DIR", ".bench_build")
    target = target if os.path.isabs(target) else os.path.join(ROOT, target)
    env["CARGO_TARGET_DIR"] = target
    try:
        profile_env, described = release_profile()
    except (OSError, tomllib.TOMLDecodeError) as e:
        print(f"perfbench: cannot read the workspace manifest: {e}", file=sys.stderr)
        return 1
    env.update(profile_env)
    env["PERFBENCH_PROFILE"] = described
    builds = [
        ["cargo", "build", "--offline", "--release", "--manifest-path", os.path.join(ROOT, "Cargo.toml"),
         "-p", "tempora_server", "--bin", "tempora-serve"],
        ["cargo", "build", "--offline", "--release", "--manifest-path", os.path.join(HERE, "Cargo.toml")],
    ]
    for cmd in builds:
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed", file=sys.stderr)
            return 1
    release = os.path.join(target, "release")
    cmd = [os.path.join(release, "perfbench"), *sys.argv[1:],
           "--serve-bin", os.path.join(release, "tempora-serve"),
           "--cache-dir", os.path.join(ROOT, ".bench_cache"),
           "--out-dir", os.path.join(ROOT, ".bench_out")]
    return subprocess.run(cmd, cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
