module github.com/auditgames/sag/benchmark

go 1.22

require github.com/auditgames/sag v0.0.0

replace github.com/auditgames/sag => ../
