#!/usr/bin/env bash
# check_exports.sh — fail when an exported function or method in
# internal/ exists only for its tests.
#
# Runs scripts/check_exports.go (stdlib go/parser only, no type
# information): every exported function and method declared in a
# non-test file under internal/ must be named by some non-test file
# under internal/, cmd/, benchmark/ or examples/, or be listed with its
# reason in scripts/exports_allow.txt. An allowlist entry that is used
# or no longer declared fails too. Matching is by name, so a method name
# used anywhere counts as used: the check is conservative and can miss a
# dead method that shares its name with a live one.
set -euo pipefail
cd "$(dirname "$0")/.."

go run scripts/check_exports.go
