//go:build race

package core

// raceBuild reports a build with the race detector, under which a
// compile allocates more (its sync.Pools drop puts at random).
const raceBuild = true
