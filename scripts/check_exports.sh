#!/usr/bin/env bash
# check_exports.sh — fail when an exported function or method in
# internal/ exists only for its tests.
#
# Runs scripts/check_exports.go (go/types, standard library only):
# every exported function and method declared in a non-test file under
# internal/ must be referred to by some non-test file under internal/,
# cmd/, benchmark/ or examples/, or be listed with its reason in
# scripts/exports_allow.txt. Uses are resolved to the declared object,
# so a method name used on another type does not count; a method also
# counts as used when its type implements an interface production code
# calls it through, or one a standard package it imports declares. An
# allowlist entry that is used or no longer declared fails too.
set -euo pipefail
cd "$(dirname "$0")/.."

go run scripts/check_exports.go
