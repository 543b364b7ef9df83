//go:build !race

package tenant_test

const raceEnabled = false
