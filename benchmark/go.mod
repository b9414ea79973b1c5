module github.com/scec/scec/benchmark

go 1.24

require github.com/scec/scec v0.0.0

replace github.com/scec/scec => ../
