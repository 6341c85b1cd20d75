#!/usr/bin/env bash
# Where a release example spends its CPU time, by source line, without a PMU.
#
#   ci/profile/profile.sh <example> [args...]
#
# Builds the SIGPROF sampler (sprof.c) with cc, builds the example in
# release (the root release profile keeps debug info), runs it with the
# sampler preloaded, and prints the 15 most sampled source lines: each sample
# goes to the innermost inlined frame that lies in a workspace source file
# (addr2line -i -f). Then it prints the samples that fell outside the
# example binary, by object (libc, the vdso, ...), so the share
# the line table cannot show is stated. The example's own output goes to
# standard error. Exits 1 when fewer than half the samples resolve to a
# workspace source line.
set -euo pipefail

if [ $# -lt 1 ]; then
    echo "usage: $0 <example> [args...]" >&2
    exit 2
fi
example=$1
shift
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(cd "$here/../.." && pwd)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

cc -O2 -shared -fPIC -o "$work/sprof.so" "$here/sprof.c" -ldl
cargo build --release --quiet --manifest-path "$root/Cargo.toml" --example "$example" >&2
bin=$(cd "$root" && realpath "${CARGO_TARGET_DIR:-target}/release/examples/$example")
SPROF_OUT="$work/samples" LD_PRELOAD="$work/sprof.so" "$bin" "$@" >&2

python3 - "$work/samples" "$bin" "$root" <<'PY'
import collections, os, subprocess, sys

samples, binary, root = sys.argv[1:]
objects = [line.split() for line in open(samples)]
total = len(objects)
if total == 0:
    sys.exit("profile: no samples were taken")
ours = collections.Counter(offset for obj, offset in objects if os.path.realpath(obj) == binary)
addresses = sorted(ours)
resolved = subprocess.run(
    ["addr2line", "-e", binary, "-a", "-i", "-f", "-C"],
    input="\n".join(addresses), capture_output=True, text=True, check=True,
).stdout.splitlines()

def workspace_line(where):
    """`where` (file:line) relative to the root if it names a line of a
    workspace source file, else None."""
    path, _, line = where.split(" ")[0].rpartition(":")
    if not line.isdigit() or line == "0":
        return None
    rel = os.path.relpath(os.path.normpath(os.path.join(root, path)), root)
    if rel.split(os.sep)[0] in ("crates", "src", "examples"):
        return f"{rel}:{line}"
    return None

# addr2line -a prints each address, then (function, file:line) per inlined
# frame, innermost first
lines, functions = collections.Counter(), {}
i = 0
for address in addresses:
    assert resolved[i].startswith("0x"), resolved[i]
    i += 1
    frames = []
    while i < len(resolved) and not resolved[i].startswith("0x"):
        frames.append((resolved[i], resolved[i + 1]))
        i += 2
    for function, where in frames:
        line = workspace_line(where)
        if line:
            lines[line] += ours[address]
            functions.setdefault(line, function)
            break

hit = sum(lines.values())
print(f"{total} samples, {hit} ({hit / total:.1%}) on a workspace source line")
for line, count in lines.most_common(15):
    print(f"{count / total:6.1%} {count:6}  {line}  {functions[line][:80]}")
outside = collections.Counter(
    os.path.basename(obj) for obj, _ in objects if os.path.realpath(obj) != binary
)
elsewhere = sum(outside.values())
print(f"{elsewhere} ({elsewhere / total:.1%}) outside {os.path.basename(binary)}, by object")
for obj, count in outside.most_common():
    print(f"{count / total:6.1%} {count:6}  {obj}")
if hit * 2 < total:
    sys.exit("profile: fewer than half the samples resolve to a workspace source line")
PY
