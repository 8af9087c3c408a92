// The benchmark is a module of its own so that the repository's
// `go build ./... && go test ./...` neither builds nor runs it. Its import
// path sits under manetskyline/, which is what lets it import the
// manetskyline/internal/... packages it measures.
module manetskyline/benchmark

go 1.22

require manetskyline v0.0.0

replace manetskyline => ../
