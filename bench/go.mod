// The benchmark is a module of its own so that the root module's
// `go build ./... && go test ./...` neither builds nor runs it. Its path
// is under dsi/, which is what lets it import dsi/internal/...
module dsi/bench

go 1.24

require dsi v0.0.0

replace dsi => ../
