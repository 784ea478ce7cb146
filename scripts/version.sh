#!/bin/sh
# Prints the build's commit identity — short hash plus "-dirty" when the
# tree has uncommitted changes — for stamping into binaries via
#
#   go build -ldflags "-X pargraph/internal/cmdutil.Commit=$(sh scripts/version.sh)"
#
# This is the one place the repo shells out to git for provenance: the
# Makefile stamps the value once per invocation and everything
# downstream (manifests, cmd output) reads the stamped cmdutil.Version
# instead of re-asking git.
set -eu

commit=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
if [ "$commit" != unknown ] && ! git diff --quiet 2>/dev/null; then
    commit="$commit-dirty"
fi
printf '%s\n' "$commit"
