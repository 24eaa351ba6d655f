module github.com/repro/inspector/bench

go 1.24

require github.com/repro/inspector v0.0.0

replace github.com/repro/inspector => ../
