// The benchmark is a module of its own so that it builds from its own
// build file and stays out of the compiler's `go test ./...`; the
// module path under m2cc/ is what lets it import m2cc/internal/....
module m2cc/benchmark

go 1.22

require m2cc v0.0.0

replace m2cc => ../
